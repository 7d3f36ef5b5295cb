// The three workloads. Each runs whole rounds of a fixed operation set
// until --seconds have passed, checks every output, and fills an Outcome.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// mine_plain (stress = false) and mine_stress (stress = true).
Outcome RunMining(const Args& args, bool stress);

/// service_mix: an in-process AlphaService driven by one closed-loop client.
Outcome RunServiceMix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
