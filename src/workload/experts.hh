/**
 * @file
 * Expert selection: per-token top-k gating.
 *
 * The paper samples target experts uniformly (Section VI, following
 * Switch Transformers); Section VIII-B discusses skewed gates with
 * hot and cold experts, which we model with a Zipf distribution for
 * the ablation study.
 */

#ifndef DUPLEX_WORKLOAD_EXPERTS_HH
#define DUPLEX_WORKLOAD_EXPERTS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace duplex
{

/** Gate distribution over experts. */
enum class GatePolicy
{
    Uniform, //!< every expert equally likely (paper default)
    Zipf,    //!< hot/cold experts, P(i) ~ 1/(i+1)^s
};

/** Samples per-expert token histograms for MoE layers. */
class ExpertSelector
{
  public:
    /**
     * @param num_experts Experts per MoE layer (Nex).
     * @param top_k       Experts chosen per token.
     * @param policy      Gate distribution.
     * @param zipf_s      Skew exponent for the Zipf policy.
     */
    ExpertSelector(int num_experts, int top_k,
                   GatePolicy policy = GatePolicy::Uniform,
                   double zipf_s = 1.0);

    int numExperts() const { return numExperts_; }
    int topK() const { return topK_; }

    /**
     * Sample how many of @p tokens select each expert. The
     * histogram sums to tokens * topK.
     */
    std::vector<std::int64_t> sample(Rng &rng,
                                     std::int64_t tokens) const;

    /**
     * Allocation-free sample(): resets and fills @p hist (resized
     * to numExperts). Same draws as sample(), so the two can be
     * mixed without perturbing the stream; the simulators call this
     * once per MoE layer with a reused scratch histogram.
     */
    void sampleInto(Rng &rng, std::int64_t tokens,
                    std::vector<std::int64_t> &hist) const;

  private:
    int numExperts_;
    int topK_;
    GatePolicy policy_;
    std::vector<double> cumWeights_; //!< Zipf CDF
    // Uniform top-2 draw spans, Nex - 1 then Nex (set when the
    // gate is uniform top-2; the loop never divides at run time).
    ExactDivisor firstSpan_{1};
    ExactDivisor secondSpan_{1};

    void sampleOneToken(Rng &rng,
                        std::vector<std::int64_t> &hist) const;
};

} // namespace duplex

#endif // DUPLEX_WORKLOAD_EXPERTS_HH
