/**
 * @file
 * Process-wide allocation counter. alloc_count.cc replaces the global
 * operator new/delete family, so it is linked only into the benchmark
 * harness; the simulator library itself is unchanged.
 */
#ifndef PERFBENCH_ALLOC_COUNT_H
#define PERFBENCH_ALLOC_COUNT_H

#include <cstdint>

namespace perfbench {

struct AllocCount
{
    uint64_t calls = 0; ///< operator new calls (all forms)
    uint64_t bytes = 0; ///< bytes requested by those calls
};

/** Totals since process start (the harness is single-threaded). */
AllocCount alloc_count();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_H
