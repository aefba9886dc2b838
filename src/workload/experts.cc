#include "workload/experts.hh"

#include <cmath>

#include "common/log.hh"

namespace duplex
{

ExpertSelector::ExpertSelector(int num_experts, int top_k,
                               GatePolicy policy, double zipf_s)
    : numExperts_(num_experts), topK_(top_k), policy_(policy)
{
    fatalIf(num_experts <= 0, "ExpertSelector: need experts");
    fatalIf(top_k <= 0 || top_k > num_experts,
            "ExpertSelector: need 0 < topK <= numExperts");
    fatalIf(policy == GatePolicy::Zipf && top_k > 8,
            "ExpertSelector: topK > 8 unsupported for Zipf gate");
    if (policy_ == GatePolicy::Uniform && topK_ == 2) {
        firstSpan_ = ExactDivisor(numExperts_ - 1);
        secondSpan_ = ExactDivisor(numExperts_);
    }
    if (policy_ == GatePolicy::Zipf) {
        cumWeights_.resize(numExperts_);
        double total = 0.0;
        for (int i = 0; i < numExperts_; ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1),
                                    zipf_s);
            cumWeights_[i] = total;
        }
        for (auto &w : cumWeights_)
            w /= total;
    }
}

void
ExpertSelector::sampleOneToken(Rng &rng,
                               std::vector<std::int64_t> &hist) const
{
    if (policy_ == GatePolicy::Uniform) {
        if (topK_ <= 8) {
            // Stack buffer, no allocation per token.
            int chosen[8];
            rng.chooseDistinctInto(numExperts_, topK_, chosen);
            for (int i = 0; i < topK_; ++i)
                ++hist[chosen[i]];
        } else {
            for (int e : rng.chooseDistinct(numExperts_, topK_))
                ++hist[e];
        }
        return;
    }
    // Zipf: rejection-sample distinct experts by CDF inversion.
    int chosen[8];
    int found = 0;
    while (found < topK_) {
        const double u = rng.uniform();
        int e = 0;
        while (e < numExperts_ - 1 && cumWeights_[e] < u)
            ++e;
        bool dup = false;
        for (int i = 0; i < found; ++i)
            if (chosen[i] == e)
                dup = true;
        if (!dup)
            chosen[found++] = e;
    }
    for (int i = 0; i < found; ++i)
        ++hist[chosen[i]];
}

std::vector<std::int64_t>
ExpertSelector::sample(Rng &rng, std::int64_t tokens) const
{
    std::vector<std::int64_t> hist;
    sampleInto(rng, tokens, hist);
    return hist;
}

void
ExpertSelector::sampleInto(Rng &rng, std::int64_t tokens,
                           std::vector<std::int64_t> &hist) const
{
    hist.assign(numExperts_, 0);
    if (policy_ == GatePolicy::Uniform && topK_ == 2) {
        // The paper models all gate top-2: Floyd's algorithm
        // unrolled, the same draws as chooseDistinctInto(n, 2) per
        // token. The generator and the divisors are local copies so
        // they stay in registers: the int64_t histogram stores could
        // otherwise alias the RNG state and force a reload per token.
        Rng local = rng;
        const ExactDivisor first = firstSpan_;
        const ExactDivisor second = secondSpan_;
        const auto last = static_cast<std::uint64_t>(numExperts_ - 1);
        std::int64_t *h = hist.data();
        for (std::int64_t t = 0; t < tokens; ++t) {
            const std::uint64_t t1 = first.mod(local.next());
            const std::uint64_t t2 = second.mod(local.next());
            ++h[t1];
            ++h[t2 == t1 ? last : t2];
        }
        rng = local;
        return;
    }
    for (std::int64_t t = 0; t < tokens; ++t)
        sampleOneToken(rng, hist);
}

} // namespace duplex
