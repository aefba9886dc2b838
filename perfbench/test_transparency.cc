/**
 * @file
 * Transparency test: on every workload, a cell run through the
 * timing wrappers must produce exactly the simulated outcome of
 * the untraced run and of the committed fingerprint, and the
 * wrappers must have seen every stage and every route.
 */

#include <cstdio>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &workload, const std::string &what)
{
    if (ok)
        return;
    ++failures;
    std::fprintf(stderr, "FAIL %s: %s\n", workload.c_str(), what.c_str());
}

} // namespace

int
main()
{
    const auto expected = loadExpected(PERFBENCH_EXPECTED);
    for (const WorkloadInfo &w : workloads()) {
        const CellRun plain = runCell(w.name, kDefaultSeed, 0, nullptr);
        Tracer tracer;
        const CellRun traced = runCell(w.name, kDefaultSeed, 0, &tracer);

        expect(plain.violations.empty() && traced.violations.empty(),
               w.name, "accounting invariant broken");
        expect(traced.fp == plain.fp, w.name,
               "traced fingerprint " + traced.fp.str() +
                   " != untraced " + plain.fp.str());
        auto it = expected.find(expectedKey(w.name, 0));
        expect(it != expected.end() && it->second == plain.fp.str(),
               w.name, "fingerprint differs from expected.txt");

        const auto calls = [&](Layer l) {
            return traced.layers[static_cast<std::size_t>(l)].calls;
        };
        expect(calls(Layer::StageExec) == plain.fp.stages, w.name,
               "wrapper missed stages");
        expect(calls(Layer::Route) == plain.routes, w.name,
               "wrapper missed routes");
        expect(calls(Layer::Driver) == 1, w.name, "root span not closed");
        std::printf("%s: %s\n", w.name.c_str(), plain.fp.str().c_str());
    }
    std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
}
