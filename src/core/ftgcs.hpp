// Fault-tolerant gradient clock synchronization: A^opt with a
// Byzantine-resilient estimate layer (the Bund–Lenzen–Rosenbaum recipe on
// top of Algorithm 2/3's machinery).
//
// A^opt trusts every neighbor report: one liar can adopt-forward an
// arbitrary L^max (pegging every correct clock at the catch-up rail, so
// the rate rule stops correcting drift) or park a fake estimate above the
// honest extremes (holding a correct node in fast mode forever).  This
// node hardens the three trust points:
//
//  1. *Certified drift-envelope filter* (accept_report): per neighbor, an
//     interval certificate anchored at first contact.  A correct
//     neighbor's clocks grow at most
//
//         rate_env = (1 + eps_hat)(1 + mu) / (1 - eps_hat)
//
//     per unit of our hardware time (its logical rate is at most
//     (1 + eps_hat)(1 + mu) real time by Condition (2); our hardware runs
//     at least (1 - eps_hat)) — so any L report above
//     anchor + rate_env * elapsed + slack is provably faulty and the
//     whole message is discarded.  The slack covers delay compression
//     (up to delay_hat of extra neighbor progress piling into one arrival
//     gap) plus the kappa-scale margins.  Crucially, accepted values
//     never RAISE the anchor past its own rate_env advance — they only
//     tighten it downward — so a patient liar cannot ratchet the
//     certificate: its admissible lies grow at the certified honest rate,
//     full stop.  (The influence_bound hack this generalizes, and the
//     naive "re-anchor at every accepted value" filter, both leak slack
//     per message.)  Certificates deliberately survive silence evictions,
//     link churn, and crash re-joins: legitimate growth during an outage
//     is admitted by the elapsed-time term, so a liar cannot launder its
//     history by going quiet; only genuine first contact anchors at the
//     reported value (the initial clock is unknowable — trimming, not the
//     filter, bounds a first-contact lie).
//
//  2. *f-trimmed L^max adoption* (adopt_lmax): instead of adopting any
//     single report, the node adopts the (f+1)-th largest per-neighbor
//     vouched L^max (vouches are the envelope-clamped reported values) —
//     at least one correct neighbor stands behind any value that moves
//     the clock, so f liars cannot peg the catch-up channel.  A node with
//     <= f credentialed neighbors adopts nothing and free-runs on its own
//     L^max.
//
//  3. *f-trimmed extrema* (run_set_clock_rate): Lambda_up / Lambda_dn of
//     Algorithm 3 are replaced by the (f+1)-th largest per-neighbor
//     skews.  Up to f Byzantine neighbors can occupy the top f ranks with
//     arbitrary values, so the (f+1)-th is witnessed by at least one
//     correct neighbor — between the honest (f+1)-th and honest maximum —
//     and the rate rule is steered by correct clocks only.  A node with
//     <= f known neighbors cannot out-vote them and falls back to the
//     no-neighbor rule (Lambda = 0).
//
// Meaningful tolerance needs degree: adoption requires f+1 credentialed
// neighbors, and the trim guarantee wants >= 2f+1 so f liars plus the
// trim never silence every honest witness.  On a degree-2 ring, f = 1 is
// the useful maximum.
//
// With f = 0 and the filter off the node is bit-identical to A^opt; the
// equivalence suites pin that, and the usual byte-identity across
// --shards / --jobs holds like for every other node.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aopt.hpp"

namespace tbcs::core {

struct FtGcsOptions {
  /// Byzantine neighbors each node tolerates (trim depth of the rate rule
  /// and the L^max adoption vote).  0 disables trimming.
  int f = 1;
  /// Certified drift-envelope filter on incoming reports.
  bool envelope_filter = true;
  /// f-trimmed Lambda extrema / L^max adoption.
  bool trim = true;
  /// Envelope slack; <= 0 derives kappa + 2 * rate_env * delay_hat (the
  /// delay-compression bound with a factor-2 margin), which honest
  /// traffic never trips.
  double envelope_slack = 0.0;
};

class FtGcsNode : public AoptNode {
 public:
  FtGcsNode(const SyncParams& params, AoptOptions opt, FtGcsOptions ft);
  FtGcsNode(std::shared_ptr<const AoptConfig> config, FtGcsOptions ft);

  /// Corrupts the inherited A^opt state *and* the filter credentials —
  /// self-stabilization must hold for the whole state vector, including
  /// the defense layer itself.
  void on_scramble(sim::NodeServices& sv, std::uint64_t seed,
                   double magnitude) override;

  // ---- inspection (tests / metrics) ----------------------------------------
  const FtGcsOptions& ft_options() const { return ft_; }
  /// Max credited growth of a correct neighbor's clocks per unit of own
  /// hardware time.
  double rate_envelope() const { return rate_env_; }
  double envelope_slack() const { return slack_; }
  /// Reports rejected by the drift-envelope filter (a subset of
  /// rejected_reports()).
  std::uint64_t filtered_reports() const { return filtered_; }
  std::size_t tracked_credentials() const { return creds_.size(); }
  /// The trimmed extrema the rate rule acts on (== lambda_up/lambda_dn
  /// when trimming is off or fewer than f+1 neighbors are known).
  double lambda_up_trimmed() const;
  double lambda_dn_trimmed() const;

 protected:
  bool accept_report(sim::NodeId from, double recv_l,
                     double recv_lmax) override;
  double adopt_lmax(sim::NodeId from, double recv_lmax) override;
  void run_set_clock_rate(sim::NodeServices& sv) override;

 private:
  /// Per-neighbor certificate.  cap_l / cap_lmax are envelope anchors:
  /// they advance at rate_env per unit of own hardware time and accepted
  /// values only tighten them downward (see file header).  vouch_lmax is
  /// the largest L^max this neighbor has stood behind — the value it
  /// brings to the adoption vote; envelope-clamped only when trimming is
  /// on (a correct L^max is a gossip maximum and may legitimately outrun
  /// the local rate envelope, so the clamp is sound only under the vote).
  /// Persistent by design; bounded by the degree (plus departed
  /// ex-neighbors).
  struct Cred {
    sim::NodeId id = sim::kInvalidNode;
    double cap_l = 0.0;
    double cap_lmax = 0.0;
    double vouch_lmax = 0.0;
    double h = 0.0;
  };
  Cred* find_cred(sim::NodeId w);
  /// Whether L^max adoption goes through the vouch vote instead of the
  /// raw report (any defense layer on).
  bool vouched_adoption() const { return ft_.envelope_filter || ft_.trim; }
  /// Lambda_up and Lambda_dn trimmed at depth f: the (f+1)-th largest
  /// neighbor skew each way, or 0 with at most f neighbors.
  struct Lambdas {
    double up = 0.0;
    double dn = 0.0;
  };
  Lambdas trimmed_lambdas() const;

  FtGcsOptions ft_;
  double rate_env_ = 1.0;
  double slack_ = 0.0;
  std::vector<Cred> creds_;
  mutable std::vector<double> scratch_;  // the rank buffers, 2 (f+1) entries
  std::uint64_t filtered_ = 0;
};

}  // namespace tbcs::core
