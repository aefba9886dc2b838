/**
 * @file
 * Process peak-RSS probe shared by the drivers that report their
 * memory footprint (quickstart, bench_longrun, the sweep gates).
 * One copy of the platform-dependent ru_maxrss unit handling.
 */

#ifndef DUPLEX_COMMON_RSS_HH
#define DUPLEX_COMMON_RSS_HH

#include <sys/resource.h>

namespace duplex
{

/** Peak resident set size of this process, in MB. */
inline double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
#ifdef __APPLE__
    // ru_maxrss is bytes on macOS.
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    // ... and kilobytes on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

} // namespace duplex

#endif // DUPLEX_COMMON_RSS_HH
