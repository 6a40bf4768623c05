#include "src/workload/trace_generator.h"

#include <algorithm>
#include <cmath>

namespace bds {

namespace {

// Fig 2b size CDF anchors: 10 % of multicast transfers are smaller than
// kFig2bP10Size (90 % exceed 50 GB) and 40 % smaller than kFig2bP40Size
// (60 % exceed 1 TB).
constexpr Bytes kFig2bMinSize = GB(1.0);
constexpr Bytes kFig2bP10Size = GB(50.0);
constexpr Bytes kFig2bP40Size = TB(1.0);
constexpr Bytes kFig2bMaxSize = TB(50.0);

// Fig 2a destination-fraction CDF anchors: 90 % of transfers reach more
// than kFig2aP10DestFraction of the DCs, 70 % more than kFig2aP30DestFraction.
constexpr double kFig2aP10DestFraction = 0.6;
constexpr double kFig2aP30DestFraction = 0.8;

}  // namespace

std::vector<AppProfile> BaiduAppMix() {
  // Table 1 of the paper. Weights approximate each application's share of
  // the transfer count (not published; byte shares are what matter).
  return {
      {"blog-articles", 0.25, 0.910},
      {"search-indexing", 0.25, 0.892},
      {"offline-file-sharing", 0.20, 0.9818},
      {"forum-posts", 0.15, 0.9808},
      {"db-syncups", 0.15, 0.991},
  };
}

TraceGenerator::TraceGenerator(TraceGeneratorOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  if (options_.app_mix.empty()) {
    options_.app_mix = BaiduAppMix();
  }
}

Bytes TraceGenerator::SampleTransferSize() {
  // Piecewise log-uniform honoring the Fig 2b anchors:
  //   10 % in [min, p10), 30 % in [p10, p40), 60 % in [p40, max].
  double u = rng_.NextDouble();
  double lo;
  double hi;
  if (u < 0.10) {
    lo = kFig2bMinSize;
    hi = kFig2bP10Size;
  } else if (u < 0.40) {
    lo = kFig2bP10Size;
    hi = kFig2bP40Size;
  } else {
    lo = kFig2bP40Size;
    hi = kFig2bMaxSize;
  }
  return std::exp(rng_.Uniform(std::log(lo), std::log(hi)));
}

int TraceGenerator::SampleDestCount() {
  // Piecewise uniform over destination fractions honoring Fig 2a:
  //   10 % in [0.1, p10), 20 % in [p10, p30), 70 % in [p30, 1.0].
  double u = rng_.NextDouble();
  double f;
  if (u < 0.10) {
    f = rng_.Uniform(0.1, kFig2aP10DestFraction);
  } else if (u < 0.30) {
    f = rng_.Uniform(kFig2aP10DestFraction, kFig2aP30DestFraction);
  } else {
    f = rng_.Uniform(kFig2aP30DestFraction, 1.0);
  }
  int max_dests = options_.num_dcs - 1;
  // Ceil keeps the CDF anchors one-sided: a draw just above an anchor
  // fraction must still count as "reaching at least that fraction of DCs".
  int count = static_cast<int>(std::ceil(f * max_dests - 1e-9));
  return std::clamp(count, 1, max_dests);
}

StatusOr<Trace> TraceGenerator::Generate() {
  if (options_.num_dcs < 2) {
    return InvalidArgumentError("TraceGenerator: need at least 2 DCs");
  }
  if (options_.num_transfers < 1) {
    return InvalidArgumentError("TraceGenerator: need at least 1 transfer");
  }
  double total_weight = 0.0;
  for (const AppProfile& app : options_.app_mix) {
    if (app.multicast_share <= 0.0 || app.multicast_share > 1.0) {
      return InvalidArgumentError("TraceGenerator: bad multicast share for " + app.name);
    }
    total_weight += app.weight;
  }
  if (total_weight <= 0.0) {
    return InvalidArgumentError("TraceGenerator: app mix has zero weight");
  }

  Trace trace;
  int64_t next_id = 0;
  for (int i = 0; i < options_.num_transfers; ++i) {
    // Pick the app by weight.
    double pick = rng_.Uniform(0.0, total_weight);
    const AppProfile* app = &options_.app_mix.back();
    for (const AppProfile& a : options_.app_mix) {
      if (pick < a.weight) {
        app = &a;
        break;
      }
      pick -= a.weight;
    }

    TraceRecord r;
    r.id = next_id++;
    r.start_time = rng_.Uniform(0.0, options_.duration);
    r.app_type = app->name;
    r.multicast = true;
    r.source_dc = static_cast<DcId>(rng_.UniformInt(0, options_.num_dcs - 1));
    int dest_count = SampleDestCount();
    for (int64_t pick_idx : rng_.SampleWithoutReplacement(options_.num_dcs - 1, dest_count)) {
      // Map [0, num_dcs-2] onto all DCs except the source.
      DcId d = static_cast<DcId>(pick_idx);
      if (d >= r.source_dc) {
        d = static_cast<DcId>(d + 1);
      }
      r.dest_dcs.push_back(d);
    }
    r.bytes = SampleTransferSize();

    // Emit the point-to-point bytes that keep this app at its Table 1
    // multicast share: p2p_bytes = multicast_bytes * (1 - share) / share.
    double p2p_bytes = r.bytes * (1.0 - app->multicast_share) / app->multicast_share;
    trace.Add(r);
    if (p2p_bytes > 0.0) {
      TraceRecord p2p;
      p2p.id = next_id++;
      p2p.start_time = rng_.Uniform(0.0, options_.duration);
      p2p.app_type = app->name;
      p2p.multicast = false;
      p2p.source_dc = static_cast<DcId>(rng_.UniformInt(0, options_.num_dcs - 1));
      DcId dst;
      do {
        dst = static_cast<DcId>(rng_.UniformInt(0, options_.num_dcs - 1));
      } while (dst == p2p.source_dc);
      p2p.dest_dcs.push_back(dst);
      p2p.bytes = p2p_bytes;
      trace.Add(std::move(p2p));
    }
  }

  // Chronological order, as a real measurement window would be stored.
  Trace sorted;
  std::vector<TraceRecord> records = trace.records();
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.start_time < b.start_time; });
  for (auto& r : records) {
    sorted.Add(std::move(r));
  }
  return sorted;
}

std::vector<MulticastJob> JobsFromTrace(const Trace& trace, Bytes block_size, double size_scale) {
  std::vector<MulticastJob> jobs;
  JobId id = 0;
  for (const TraceRecord& r : trace.records()) {
    if (!r.multicast) {
      continue;
    }
    auto job = MakeJob(id, r.source_dc, r.dest_dcs, r.bytes * size_scale, block_size,
                       r.start_time, r.app_type);
    if (job.ok()) {
      jobs.push_back(std::move(job).value());
      ++id;
    }
  }
  return jobs;
}

}  // namespace bds
