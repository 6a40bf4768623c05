// Tiny command-line flag parser for examples and benches.
//
//   FlagParser flags;
//   int dcs = 10; double size_gb = 70.0; bool verbose = false;
//   flags.AddInt("dcs", &dcs, "number of destination DCs");
//   flags.AddDouble("size-gb", &size_gb, "data size in GB");
//   flags.AddBool("verbose", &verbose, "print extra output");
//   if (!flags.Parse(argc, argv)) return 1;  // prints usage on --help / error
//
// Accepted syntax: --name=value, --name value, --bool-flag, --no-bool-flag.

#ifndef BDS_SRC_COMMON_FLAGS_H_
#define BDS_SRC_COMMON_FLAGS_H_

#include <string>
#include <vector>

namespace bds {

class FlagParser {
 public:
  void AddInt(const std::string& name, int* target, const std::string& help);
  void AddDouble(const std::string& name, double* target, const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);
  void AddString(const std::string& name, std::string* target, const std::string& help);

  // Returns false (after printing usage) on --help or malformed input.
  bool Parse(int argc, char** argv);

  std::string Usage(const std::string& program) const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
  };

  const Flag* Find(const std::string& name) const;
  bool Assign(const Flag& flag, const std::string& value) const;

  std::vector<Flag> flags_;
};

}  // namespace bds

#endif  // BDS_SRC_COMMON_FLAGS_H_
