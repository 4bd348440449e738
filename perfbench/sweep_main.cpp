// perfbench_sweep: the end-to-end driver.  Runs one untraced pass over one
// workload and prints it as a JSON line between the set-up timestamp and
// the peak resident set; see perfbench/README.md.
//
// run.py starts a fresh driver for every pass: repeated sweeps in one
// process get slower (ten fresh_smoke passes in one process went from
// 6.6-7.4 s to 8.1-8.4 s), so a pass measured late in a long-lived process
// would measure the process's age, not the code.
#include <exception>
#include <iostream>

#include "workload.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = make_workload(args.workload, args.base_seed);
    // The grid is built; the first run_sweep call comes next.
    std::cout << "{\"setup_mono_ns\":" << monotonic_ns() << "}" << std::endl;
    if (args.setup_only) return 0;
    std::cout << to_json(run_pass(workload, "untraced")) << std::endl;
    std::cout << "{\"peak_rss_mb\":" << peak_rss_mb() << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_sweep: " << e.what() << "\n";
    return 2;
  }
}
