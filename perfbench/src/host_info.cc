#include "host_info.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string
cpu_model()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

std::string
host_fingerprint_json()
{
#if defined(__clang__)
    std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    std::string compiler = "gcc " __VERSION__;
#else
    std::string compiler = "unknown";
#endif
    return "{\"cpu\": \"" + json_escape(cpu_model()) +
           "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"compiler\": \"" + json_escape(compiler) +
           "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
}

double
peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
wall_now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
reference_kernel_s()
{
    // 8 MiB of random updates: most of the interference on a shared
    // host is in the memory hierarchy, which a cache-resident kernel
    // does not see.
    static std::vector<uint64_t> table(1 << 20);
    static std::vector<uint64_t> keys(1 << 15);
    auto next = [x = uint64_t(88172645463325252ull)]() mutable {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    double t0 = wall_now();
    for (int i = 0; i < 400000; ++i) {
        uint64_t x = next();
        table[x & (table.size() - 1)] += x;
    }
    for (uint64_t& k : keys)
        k = next();
    std::sort(keys.begin(), keys.end());
    volatile uint64_t sink = keys[keys.size() / 2] + table[7];
    (void)sink;
    return wall_now() - t0;
}

double
thread_cpu_now()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace perfbench
