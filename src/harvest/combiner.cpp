#include "harvest/combiner.hpp"

#include <algorithm>
#include <functional>

#include "core/error.hpp"

namespace msehsim::harvest {

DiodeOrCombiner::DiodeOrCombiner(std::string name,
                                 std::vector<std::unique_ptr<Harvester>> sources,
                                 Volts diode_drop)
    : name_(std::move(name)), sources_(std::move(sources)), diode_drop_(diode_drop) {
  require_spec(!sources_.empty(), "DiodeOrCombiner needs at least one source");
  for (const auto& s : sources_)
    require_spec(s != nullptr, "DiodeOrCombiner: null source");
  require_spec(diode_drop_.value() >= 0.0, "diode drop must be >= 0");
}

HarvesterKind DiodeOrCombiner::kind() const {
  return sources_[dominant_source()]->kind();
}

void DiodeOrCombiner::do_set_conditions(const env::AmbientConditions& c) {
  for (auto& s : sources_) s->set_conditions(c);
}

std::size_t DiodeOrCombiner::dominant_source() const {
  std::size_t best = 0;
  Volts best_voc{-1.0};
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const Volts voc = sources_[i]->open_circuit_voltage();
    if (voc > best_voc) {
      best_voc = voc;
      best = i;
    }
  }
  return best;
}

Amps DiodeOrCombiner::current_at(Volts v) const {
  if (v.value() < 0.0) return Amps{0.0};
  // Each source sees the combiner terminal plus its diode's drop; reverse
  // bias (source Voc below terminal + drop) conducts nothing. In practice
  // only the strongest source contributes meaningful current, but summing
  // is exact for ideal-diode OR-ing.
  Amps total{0.0};
  for (const auto& s : sources_) total += s->current_at(v + diode_drop_);
  return total;
}

Volts DiodeOrCombiner::open_circuit_voltage() const {
  Volts best{0.0};
  for (const auto& s : sources_) {
    const Volts voc = s->open_circuit_voltage();
    if (voc > best) best = voc;
  }
  return Volts{std::max(0.0, best.value() - diode_drop_.value())};
}

OperatingPoint DiodeOrCombiner::compute_mpp() const {
  const double voc = open_circuit_voltage().value();
  if (voc <= 0.0) return OperatingPoint{};
  const double drop = diode_drop_.value();

  // Conduction cutoffs (terminal voltage above which a source is reverse-
  // blocked) and the Thevenin parameters of the linear sources.
  struct ThevCut {
    double c;  // cutoff Voc_i - drop
    double r;
  };
  std::vector<ThevCut> thevs;
  std::vector<double> cuts;
  std::vector<double> candidates;
  for (const auto& s : sources_) {
    const double c = s->open_circuit_voltage().value() - drop;
    if (c <= 0.0) continue;  // never conducts at a non-negative terminal
    cuts.push_back(c);
    const auto t = s->thevenin_equivalent();
    if (t && t->r.value() > 0.0) {
      thevs.push_back({c, t->r.value()});
    } else {
      // Nonlinear knee: its own closed-form shifted MPP (already reported at
      // the combiner terminal) is the candidate over its dominance region.
      candidates.push_back(
          std::clamp(s->shifted_mpp(diode_drop_).v.value(), 0.0, voc));
    }
  }
  if (cuts.empty()) return OperatingPoint{};
  std::sort(cuts.begin(), cuts.end(), std::greater<>());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Sweep the fixed-active-set regions [lo, hi) from the top cutoff down.
  // A source is active throughout a region iff its cutoff >= hi; the
  // Thevenin actives sum to P = v (A - B v) with vertex A / 2B.
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const double hi = cuts[k];
    const double lo = (k + 1 < cuts.size()) ? cuts[k + 1] : 0.0;
    double a = 0.0;
    double b = 0.0;
    for (const auto& t : thevs) {
      if (t.c >= hi) {
        a += t.c / t.r;
        b += 1.0 / t.r;
      }
    }
    if (b > 0.0) candidates.push_back(std::clamp(a / (2.0 * b), lo, hi));
    candidates.push_back(hi);  // region boundary (a cutoff kink)
  }

  double best_v = 0.0;
  double best_p = 0.0;
  for (const double v : candidates) {
    const double p = power_at(Volts{v}).value();
    if (p > best_p) {
      best_p = p;
      best_v = v;
    }
  }
  OperatingPoint mpp;
  mpp.v = Volts{best_v};
  mpp.i = current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

}  // namespace msehsim::harvest
