// Umbrella header: everything a BDS library user needs.
//
//   #include "src/core/bds.h"
//
// pulls in the service facade, options, topology builders, the workload
// generators and the run reports. Individual modules can still be included
// directly for finer-grained use.

#ifndef BDS_SRC_CORE_BDS_H_
#define BDS_SRC_CORE_BDS_H_

#include "src/baselines/akamai.h"
#include "src/baselines/chain.h"
#include "src/baselines/gingko.h"
#include "src/baselines/ideal.h"
#include "src/baselines/strategy.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/options.h"
#include "src/core/service.h"
#include "src/topology/builders.h"
#include "src/topology/topology.h"
#include "src/workload/background_traffic.h"
#include "src/workload/job.h"
#include "src/workload/trace_generator.h"

#endif  // BDS_SRC_CORE_BDS_H_
