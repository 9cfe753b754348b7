#include "core/classifier.h"

#include <numeric>
#include <ostream>
#include <utility>

#include "core/invariants.h"

namespace iri::core {

// The taxonomy's two super-classes must partition: no category is both
// instability and pathology (checked for every bin at compile time).
template <std::size_t... I>
constexpr bool PartitionsAreDisjoint(std::index_sequence<I...>) {
  return ((!(IsInstability(static_cast<Category>(I)) &&
             IsPathology(static_cast<Category>(I)))) && ...);
}
static_assert(PartitionsAreDisjoint(std::make_index_sequence<kNumCategories>{}),
              "IsInstability and IsPathology must be disjoint");

const char* ToString(Category c) {
  switch (c) {
    case Category::kWADiff: return "WADiff";
    case Category::kAADiff: return "AADiff";
    case Category::kWADup: return "WADup";
    case Category::kAADup: return "AADup";
    case Category::kWWDup: return "WWDup";
    case Category::kWithdraw: return "Withdraw";
    case Category::kInitial: return "Initial";
  }
  return "?";
}

void PrintTo(Category c, std::ostream* os) { *os << ToString(c); }

ClassifiedEvent Classifier::Classify(UpdateEvent ev) {
  const Verdict v = ClassifyVerdict(ev);
  return {std::move(ev), v.category, v.policy_fluctuation};
}

Verdict Classifier::ClassifyVerdict(const UpdateEvent& ev) {
  Verdict out;
  auto [st_ptr, fresh] = state_.TryEmplace(ev.Key());
  RouteState& st = *st_ptr;
  if (fresh) st.last_attr_id = default_attr_id_;

  if (ev.is_withdraw) {
    if (fresh || st.status == RouteStatus::kWithdrawn) {
      // Withdrawal of a route that is not announced (or never was):
      // the paper's dominant pathology.
      out.category = Category::kWWDup;
    } else {
      out.category = Category::kWithdraw;
      st.status = RouteStatus::kWithdrawn;
      // last_attr_id intentionally retained for WADup detection.
    }
  } else {
    // Hash-cons once, then every comparison against the remembered route is
    // on ids: equal id = byte-equal attribute set, equal forwarding half =
    // the paper's forwarding tuple matches. Exact repeats of the remembered
    // route (the AADup/WADup bulk of the measured stream) short-circuit on a
    // deep compare against the interned copy — no hashing, no table probe —
    // and so does the A↔B oscillation case via the one-step-back memo.
    // Both memo hits return the id Intern would have found, so the id
    // stream (and with it every digest) is unchanged.
    bgp::AttrSetId attr_id;
    if (attrs_.Get(st.last_attr_id) == ev.attributes) {
      attr_id = st.last_attr_id;
    } else if (st.prev_attr_id != bgp::kInvalidAttrSetId &&
               attrs_.Get(st.prev_attr_id) == ev.attributes) {
      attr_id = st.prev_attr_id;
    } else {
      attr_id = attrs_.Intern(ev.attributes);
    }
    if (fresh) {
      out.category = Category::kInitial;
    } else if (st.status == RouteStatus::kAnnounced) {
      if (attrs_.ForwardingEquivalent(st.last_attr_id, attr_id)) {
        out.category = Category::kAADup;
        out.policy_fluctuation = st.last_attr_id != attr_id;
      } else {
        out.category = Category::kAADiff;
      }
    } else {  // previously withdrawn, now re-announced
      if (attrs_.ForwardingEquivalent(st.last_attr_id, attr_id)) {
        out.category = Category::kWADup;
      } else {
        out.category = Category::kWADiff;
      }
    }
    st.status = RouteStatus::kAnnounced;
    if (attr_id != st.last_attr_id) {
      st.prev_attr_id = st.last_attr_id;
      st.last_attr_id = attr_id;
    }
  }

  IRI_ASSERT(static_cast<std::size_t>(out.category) < kNumCategories,
             "classifier produced an out-of-range category");
  ++totals_[static_cast<std::size_t>(out.category)];
  ++events_;
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
  // Attribution: record the verdict against the event's root cause. A cause
  // "touches" this route the first time one of its descendants reaches it
  // (blast radius counts routes, not events).
  const bool first_touch = ev.cause.id != st.last_cause_id;
  prov_.Record(static_cast<std::size_t>(out.category), ev.cause, ev.time,
               first_touch);
  st.last_cause_id = ev.cause.id;
#endif
  // Conservation: the seven bins partition the event stream exactly. A
  // drift here would silently reshape Figure 2.
  IRI_DCHECK(std::accumulate(totals_.begin(), totals_.end(),
                             std::uint64_t{0}) == events_,
             "category counts must conserve total events");
  return out;
}

}  // namespace iri::core
