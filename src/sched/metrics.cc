#include "sched/metrics.hh"

#include <algorithm>

namespace duplex
{

void
MetricsAccumulator::ingest(const Request &request)
{
    ++ingested_;
    if (ingested_ <= skip_)
        return; // warm-up request, excluded by completion order
    // One copy of the extraction rule, dispatched to either sink
    // family (SampleStats or BoundedStats — both expose add()), in
    // a fixed order (T2FT, E2E, then the token gaps) so the exact
    // SampleStats' running float sums depend only on the
    // retirement stream.
    const auto extract = [&](auto &t2ft, auto &e2e, auto &tbt,
                             auto &worst_gap) {
        if (request.firstToken >= 0)
            t2ft.add(psToMs(request.firstToken - request.arrival));
        if (request.finished >= 0)
            e2e.add(psToMs(request.finished - request.arrival));
        double worst = -1.0;
        for (std::size_t t = 1; t < request.tokenTimes.size();
             ++t) {
            const double gap = psToMs(request.tokenTimes[t] -
                                      request.tokenTimes[t - 1]);
            tbt.add(gap);
            worst = std::max(worst, gap);
        }
        if (worst >= 0.0)
            worst_gap.add(worst);
    };
    if (bounded_)
        extract(bounded_->t2ftMs, bounded_->e2eMs,
                bounded_->tbtMs, bounded_->worstGapMs);
    else
        extract(metrics_.t2ftMs, metrics_.e2eMs, metrics_.tbtMs,
                worstGap_);
}

std::shared_ptr<const BoundedLatencyMetrics>
MetricsAccumulator::takeBounded()
{
    if (!bounded_)
        return nullptr;
    auto out = std::make_shared<const BoundedLatencyMetrics>(
        std::move(*bounded_));
    bounded_.reset();
    return out;
}

void
WarmupWindow::onStageCompleted(PicoSec now,
                               std::int64_t generated_tokens)
{
    ++stages_;
    if (stages_ == warmupStages_) {
        windowStart_ = now;
        tokensAtStart_ = generated_tokens;
    }
}

void
WarmupWindow::finalize(ServingMetrics &m, PicoSec now,
                       std::int64_t total_tokens) const
{
    if (stages_ > warmupStages_) {
        // Throughput over the post-warm-up window only.
        m.totalTokens = total_tokens - tokensAtStart_;
        m.elapsed = now - windowStart_;
    } else {
        m.totalTokens = total_tokens;
        m.elapsed = now;
    }
}

LatencySummary
summarizeLatency(const ServingMetrics &m)
{
    LatencySummary s;
    s.tbtP50 = m.tbtMs.percentile(50);
    s.tbtP90 = m.tbtMs.percentile(90);
    s.tbtP99 = m.tbtMs.percentile(99);
    s.t2ftP50 = m.t2ftMs.percentile(50);
    s.e2eP50 = m.e2eMs.percentile(50);
    return s;
}

} // namespace duplex
