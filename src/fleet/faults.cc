#include "fleet/faults.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/log.hh"

namespace duplex
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::Degrade:
        return "degrade";
      case FaultKind::Rejoin:
        return "rejoin";
      case FaultKind::Drain:
        return "drain";
    }
    return "?";
}

PicoSec
RetrySpec::backoffFor(int attempt) const
{
    panicIf(attempt < 1, "RetrySpec::backoffFor: 1-based attempt");
    double delay = backoffSec;
    for (int k = 1; k < attempt; ++k)
        delay *= multiplier;
    return secToPs(delay);
}

void
RetrySpec::validate() const
{
    fatalIf(maxAttempts < 0, "RetrySpec: negative maxAttempts");
    fatalIf(backoffSec < 0.0, "RetrySpec: negative backoffSec");
    fatalIf(multiplier <= 0.0,
            "RetrySpec: multiplier must be positive");
}

void
FaultSpec::validate() const
{
    fatalIf(mtbfSec < 0.0, "FaultSpec: negative mtbfSec");
    fatalIf(mtbfSec > 0.0 && mttrSec <= 0.0,
            "FaultSpec: MTBF draws need a positive mttrSec");
    fatalIf(stragglerFraction < 0.0 || stragglerFraction > 1.0,
            "FaultSpec: stragglerFraction must be in [0, 1]");
    fatalIf(stragglerFraction > 0.0 && stragglerFactor <= 0.0,
            "FaultSpec: stragglerFactor must be positive");
    fatalIf(stragglerDurationSec < 0.0,
            "FaultSpec: negative stragglerDurationSec");
    fatalIf(numDomains < 0, "FaultSpec: negative numDomains");
    for (int d : domainOf)
        fatalIf(d < 0, "FaultSpec: negative domain in domainOf");
    fatalIf(domainMtbfSec < 0.0, "FaultSpec: negative domainMtbfSec");
    fatalIf(domainMttrSec < 0.0, "FaultSpec: negative domainMttrSec");
    fatalIf(domainMtbfSec > 0.0 && !hasDomains(),
            "FaultSpec: domainMtbfSec needs a domain map "
            "(numDomains or domainOf)");
    fatalIf(domainMtbfSec > 0.0 && domainMttrSec <= 0.0 &&
                mttrSec <= 0.0,
            "FaultSpec: domain MTBF draws need a positive repair "
            "time (domainMttrSec or mttrSec)");
    fatalIf(drainFactorThreshold < 0.0,
            "FaultSpec: negative drainFactorThreshold");
    for (const FaultEvent &e : events) {
        fatalIf(e.kind == FaultKind::Rejoin,
                "FaultSpec: rejoin events are reported, not "
                "scheduled — schedule a crash with a downtime");
        fatalIf(e.kind == FaultKind::Drain,
                "FaultSpec: drain events are reported, not "
                "scheduled — they fire when a degrade crosses "
                "drainFactorThreshold");
        fatalIf(e.at < 0, "FaultSpec: negative event time");
        if (e.domain >= 0) {
            fatalIf(e.kind != FaultKind::Crash,
                    "FaultSpec: only crashes can target a domain");
            fatalIf(!hasDomains(),
                    "FaultSpec: a domain-targeted crash needs a "
                    "domain map (numDomains or domainOf)");
            fatalIf(e.domain >= domainCount(),
                    "FaultSpec: crash targets a domain beyond the "
                    "domain map");
        } else if (e.kind == FaultKind::Degrade) {
            fatalIf(e.duration <= 0,
                    "FaultSpec: degrade events need a positive "
                    "window");
            fatalIf(e.factor <= 0.0,
                    "FaultSpec: degrade factor must be positive");
        }
    }
}

FaultPlan::FaultPlan(const FaultSpec &spec, int instance,
                     std::uint64_t fleet_seed)
    : FaultPlan(spec, instance, -1, spec.mtbfSec, spec.mttrSec,
                spec.stragglerFraction,
                faultStreamSeed(fleet_seed, instance))
{
}

FaultPlan
FaultPlan::forDomain(const FaultSpec &spec, int domain,
                     std::uint64_t fleet_seed)
{
    // Domain strikes are crashes only: stragglerFraction 0 leaves
    // pop() exactly one downtime draw per strike.
    return FaultPlan(spec, -1, domain, spec.domainMtbfSec,
                     spec.domainMttrSec > 0.0 ? spec.domainMttrSec
                                              : spec.mttrSec,
                     0.0, domainStreamSeed(fleet_seed, domain));
}

FaultPlan::FaultPlan(const FaultSpec &spec, int instance, int domain,
                     double mtbf_sec, double mttr_sec,
                     double straggler_fraction,
                     std::uint64_t stream_seed)
    : random_(mtbf_sec > 0.0), instance_(instance), domain_(domain),
      mtbfSec_(mtbf_sec), mttrSec_(mttr_sec),
      stragglerFraction_(straggler_fraction),
      stragglerFactor_(spec.stragglerFactor),
      stragglerDurationSec_(spec.stragglerDurationSec),
      rng_(stream_seed)
{
    // A domain plan takes its domain's events; an instance plan
    // takes the plain (non-domain) events aimed at its instance.
    for (const FaultEvent &e : spec.events)
        if (e.domain == domain &&
            (domain >= 0 || e.instance == instance))
            explicit_.push_back(e);
    std::stable_sort(explicit_.begin(), explicit_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    if (random_)
        armRandom(0);
}

void
FaultPlan::armRandom(PicoSec after)
{
    nextRandomAt_ =
        after + secToPs(rng_.exponential(1.0 / mtbfSec_));
}

bool
FaultPlan::pending() const
{
    return !explicit_.empty() || nextRandomAt_ >= 0;
}

PicoSec
FaultPlan::nextAt() const
{
    if (!pending())
        return -1;
    if (explicit_.empty())
        return nextRandomAt_;
    if (nextRandomAt_ < 0)
        return explicit_.front().at;
    return std::min(explicit_.front().at, nextRandomAt_);
}

FaultEvent
FaultPlan::pop()
{
    panicIf(!pending(), "FaultPlan::pop with nothing scheduled");
    if (!explicit_.empty() &&
        (nextRandomAt_ < 0 ||
         explicit_.front().at <= nextRandomAt_)) {
        FaultEvent e = explicit_.front();
        explicit_.pop_front();
        return e;
    }
    // Random event: one fixed draw order (kind, then window) so the
    // stream is a pure function of the spec and the stream seed.
    FaultEvent e;
    e.instance = instance_;
    e.domain = domain_;
    e.at = nextRandomAt_;
    const bool straggle =
        stragglerFraction_ > 0.0 &&
        rng_.uniform() < stragglerFraction_;
    if (straggle) {
        e.kind = FaultKind::Degrade;
        e.factor = stragglerFactor_;
        const double window =
            stragglerDurationSec_ > 0.0
                ? stragglerDurationSec_
                : rng_.exponential(1.0 / mttrSec_);
        e.duration = std::max<PicoSec>(1, secToPs(window));
    } else {
        e.kind = FaultKind::Crash;
        e.duration = std::max<PicoSec>(
            1, secToPs(rng_.exponential(1.0 / mttrSec_)));
    }
    // The machine cannot fail again until this fault's window ends.
    armRandom(e.at + e.duration);
    return e;
}

namespace
{

/**
 * splitmix finalizer over (seed, index) XOR a per-process salt:
 * disjoint from the `seed + instance` workload streams by
 * construction, disjoint across salts, and stable across standard
 * libraries.
 */
std::uint64_t
saltedStreamSeed(std::uint64_t fleet_seed, int index,
                 std::uint64_t salt)
{
    std::uint64_t x = fleet_seed * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(index);
    x ^= salt;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
faultStreamSeed(std::uint64_t fleet_seed, int instance)
{
    return saltedStreamSeed(fleet_seed, instance,
                            0xFA17'FA17'FA17'FA17ULL);
}

std::uint64_t
domainStreamSeed(std::uint64_t fleet_seed, int domain)
{
    return saltedStreamSeed(fleet_seed, domain,
                            0xD0'0D'D0'0D'D0'0D'D0'0DULL);
}

namespace
{

/** Split @p text on any of @p seps, trimming surrounding
 *  whitespace and dropping empty pieces ("a; b" == "a;b"). */
std::vector<std::string>
splitAny(const std::string &text, const char *seps)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = text.find_first_of(seps, start);
        std::size_t stop =
            end == std::string::npos ? text.size() : end;
        while (start < stop && std::isspace(static_cast<unsigned char>(
                                   text[start])))
            ++start;
        while (stop > start && std::isspace(static_cast<unsigned char>(
                                   text[stop - 1])))
            --stop;
        if (stop > start)
            out.push_back(text.substr(start, stop - start));
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    return out;
}

double
parseNumber(const std::string &field, const std::string &item)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(field, &used);
        fatalIf(used != field.size(),
                "--faults: bad number '" + field + "' in '" + item +
                    "'");
        return v;
    } catch (const std::exception &) {
        fatal("--faults: bad number '" + field + "' in '" + item +
              "'");
    }
}

} // namespace

std::vector<FaultEvent>
parseFaultList(const std::string &text)
{
    std::vector<FaultEvent> events;
    for (const std::string &item : splitAny(text, ";,")) {
        const std::size_t atPos = item.find('@');
        fatalIf(atPos == std::string::npos,
                "--faults: '" + item +
                    "' — expected kind@sec:instance[:...]");
        const std::string kind = item.substr(0, atPos);
        const std::vector<std::string> fields =
            splitAny(item.substr(atPos + 1), ":");
        fatalIf(fields.size() < 2,
                "--faults: '" + item +
                    "' — need at least time and instance");
        FaultEvent e;
        const double sec = parseNumber(fields[0], item);
        fatalIf(sec < 0.0,
                "--faults: negative time in '" + item + "'");
        e.at = secToPs(sec);
        if (fields[1].rfind("domain=", 0) == 0) {
            // Correlated event: crash@sec:domain=D[:downtime-sec]
            // strikes every instance of the domain at once.
            fatalIf(kind != "crash",
                    "--faults: only crash can target a domain in '" +
                        item + "'");
            const double dom =
                parseNumber(fields[1].substr(7), item);
            e.domain = static_cast<int>(dom);
            fatalIf(e.domain < 0 ||
                        static_cast<double>(e.domain) != dom,
                    "--faults: domain must be a non-negative "
                    "integer in '" +
                        item + "'");
        } else {
            const double inst = parseNumber(fields[1], item);
            e.instance = static_cast<int>(inst);
            fatalIf(e.instance < 0 ||
                        static_cast<double>(e.instance) != inst,
                    "--faults: instance must be a non-negative "
                    "integer in '" +
                        item + "'");
        }
        if (kind == "crash") {
            fatalIf(fields.size() > 3,
                    "--faults: too many fields in '" + item +
                        "' (crash@sec:instance[:downtime-sec])");
            e.kind = FaultKind::Crash;
            e.duration = -1;
            if (fields.size() == 3) {
                const double down = parseNumber(fields[2], item);
                fatalIf(down <= 0.0,
                        "--faults: downtime must be positive in '" +
                            item + "'");
                e.duration = secToPs(down);
            }
        } else if (kind == "degrade") {
            fatalIf(fields.size() < 3 || fields.size() > 4,
                    "--faults: '" + item +
                        "' — degrade@sec:instance:window-sec"
                        "[:factor]");
            e.kind = FaultKind::Degrade;
            const double window = parseNumber(fields[2], item);
            fatalIf(window <= 0.0,
                    "--faults: window must be positive in '" +
                        item + "'");
            e.duration = secToPs(window);
            e.factor = 3.0;
            if (fields.size() == 4) {
                e.factor = parseNumber(fields[3], item);
                fatalIf(e.factor <= 0.0,
                        "--faults: factor must be positive in '" +
                            item + "'");
            }
        } else {
            fatal("--faults: unknown kind '" + kind + "' in '" +
                  item + "' (crash | degrade)");
        }
        events.push_back(e);
    }
    return events;
}

} // namespace duplex
