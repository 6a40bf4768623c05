// Reference solvers the parity suites compare the production code against.
// Each is the straightforward form of an algorithm whose tuned form lives in
// src/; neither is linked into the library.

#ifndef BDS_TESTS_ORACLES_H_
#define BDS_TESTS_ORACLES_H_

#include <vector>

#include "src/common/types.h"
#include "src/lp/mcf.h"
#include "src/simulator/flow.h"

namespace bds {

// The straightforward Fleischer loop (full rescan of a commodity's path
// lengths per push, every commodity visited every phase). SolveMcfFptas must
// match it bit for bit.
McfResult SolveMcfFptasReference(const McfInstance& instance, double epsilon = 0.1);

// The whole-network progressive-filling allocator: one global filling pass
// over all links, no component decomposition. Writes Flow::current_rate for
// every flow; completed flows get rate 0. The simulator's per-component
// rates must agree with it to floating-point reassociation noise.
void AllocateReference(const std::vector<Rate>& capacities, std::vector<Flow*>& flows);

}  // namespace bds

#endif  // BDS_TESTS_ORACLES_H_
