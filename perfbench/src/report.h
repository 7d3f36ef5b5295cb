// Output side of the harness: the machine/build stamp, the human-readable
// report and the final one-line JSON result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>

#include "common.h"

namespace perfbench {

/// nproc, CPU model, the kernel variant core/dispatch resolves, the
/// compiled variants, build type, compiler and flags — as JSON.
std::string StampJson();

/// Prints the report lines and, as the last stdout line, the result JSON.
/// In traced mode also writes the per-layer JSON file under kOutDir.
void PrintResult(const Args& args, const Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
