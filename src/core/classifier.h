// The paper's routing-update taxonomy (§4), implemented as a streaming
// classifier over per-(Prefix, peer) state.
//
// Categories, keyed on the forwarding tuple (Prefix, NextHop, ASPATH):
//
//   WADiff  explicit withdrawal later replaced by a *different* route
//           (forwarding instability)
//   AADiff  implicit withdrawal: announcement replaced by a *different*
//           route (forwarding instability)
//   WADup   explicit withdrawal then re-announcement of the *same* route
//           (forwarding instability or pathology)
//   AADup   announcement replaced by an *identical* forwarding tuple
//           (pathology; if non-forwarding attributes changed it is policy
//           fluctuation — reported via the policy_fluctuation flag)
//   WWDup   a withdrawal for a prefix that is already unreachable from that
//           peer (pathology — the dominant class in the measured data)
//   Withdraw  first withdrawal of an announced route: the W of a future
//           WA pair; legitimate topology information, not yet categorizable
//   Initial first sighting of a (Prefix, peer) announcement (table dumps,
//           genuinely new networks) — the paper's "uncategorized"
//
// Instability (the paper's term) = WADiff + AADiff + WADup.
// Pathology = AADup + WWDup.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

#include "bgp/intern.h"
#include "core/event.h"
#include "netbase/probe_map.h"
#include "obs/provenance.h"

namespace iri::core {

enum class Category : std::uint8_t {
  kWADiff = 0,
  kAADiff = 1,
  kWADup = 2,
  kAADup = 3,
  kWWDup = 4,
  kWithdraw = 5,
  kInitial = 6,
};
inline constexpr std::size_t kNumCategories = 7;

const char* ToString(Category c);
// Prints ToString(c) ("WWDup"): what gtest shows for a Category in a failed
// assertion, instead of the enum's raw byte.
void PrintTo(Category c, std::ostream* os);

// True for the classes the paper calls "instability" (forwarding
// instability + possible pathology WADup).
constexpr bool IsInstability(Category c) {
  return c == Category::kWADiff || c == Category::kAADiff ||
         c == Category::kWADup;
}

// True for redundant/pathological classes.
constexpr bool IsPathology(Category c) {
  return c == Category::kAADup || c == Category::kWWDup;
}

struct ClassifiedEvent {
  UpdateEvent event;
  Category category = Category::kInitial;
  // For AADup: the forwarding tuple was identical but some other attribute
  // (MED, communities, ...) changed — the paper's "policy fluctuation".
  bool policy_fluctuation = false;
};

// The event-free half of a classification: what Classify decides about an
// event, without the event. The monitor's hot loop takes only this, so no
// event is copied.
struct Verdict {
  Category category = Category::kInitial;
  bool policy_fluctuation = false;
};

class Classifier {
 public:
  Classifier() : default_attr_id_(attrs_.Intern(bgp::PathAttributes{})) {
    // Probed-only flat map (TryEmplace/Find; no iteration API, so its layout
    // cannot reach any output). Pre-sizing skips the early rehash cascade —
    // at paper scale the table grows to (42 k prefixes × peers) entries
    // within the first hour.
    state_.Reserve(1 << 12);
  }

  // Classifies `ev` against the per-route state and updates that state.
  ClassifiedEvent Classify(UpdateEvent ev);

  // Verdict-only variant: identical state/total updates, no event copy.
  // This is what the monitor runs on every exploded event.
  Verdict ClassifyVerdict(const UpdateEvent& ev);

  // Number of (Prefix, peer) routes with live state.
  std::size_t TrackedRoutes() const { return state_.size(); }

  // Running totals by category.
  const std::array<std::uint64_t, kNumCategories>& totals() const {
    return totals_;
  }

  // Events classified since construction/Reset. The conservation invariant —
  // the paper's seven bins partition the event stream — is sum(totals()) ==
  // total_events(), audited by IRI_DCHECK on every Classify.
  std::uint64_t total_events() const { return events_; }

  void Reset() {
    state_.Clear();
    totals_.fill(0);
    events_ = 0;
    prov_ = obs::AttributionMatrix{};
    // attrs_ is deliberately retained: it is a pure value cache (ids are
    // only compared against ids from the same table), and the same streams
    // tend to recur across resets.
  }

  // The hash-consed attribute-set table backing the per-route state.
  // Exposed for tests and the full-paper bench's memory report.
  const bgp::PathAttributesTable& attrs() const { return attrs_; }

  // Attribution aggregate: pathology class x root cause kind x hop depth,
  // fed at verdict time from each event's provenance tag. Empty when
  // provenance is compiled out. Category indices fit AttributionMatrix's
  // class axis (kNumCategories <= kMaxClasses, checked below).
  const obs::AttributionMatrix& provenance() const { return prov_; }

 private:
  enum class RouteStatus : std::uint8_t { kAnnounced, kWithdrawn };

  struct RouteState {
    RouteStatus status = RouteStatus::kWithdrawn;
    // Last announced attributes, interned (survives withdrawal: WADup needs
    // to compare a re-announcement against the route that was withdrawn).
    // Interning shrinks this per-(Prefix, peer) state from a full attribute
    // set to one id — at paper scale that is 42 k prefixes × peers entries —
    // and makes the AADup exact-duplicate test a single integer compare.
    bgp::AttrSetId last_attr_id = bgp::kInvalidAttrSetId;
    // The attribute set announced before last_attr_id. Routes mostly flap
    // between two states (A↔B oscillation is the paper's signature
    // instability), so remembering one step further back lets the classifier
    // resolve the "differs from last" case with a deep compare against the
    // interned copy instead of a hash + probe of the intern table. Pure
    // memoization: the id returned is the one Intern would have found.
    bgp::AttrSetId prev_attr_id = bgp::kInvalidAttrSetId;
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
    // Last cause id seen on this route — blast-radius dedup: a cause's
    // `prefixes` counts (prefix, peer) routes it newly reached, not events.
    std::uint32_t last_cause_id = 0;
#endif
  };

  ProbeMap<bgp::PrefixPeer, RouteState> state_;
  bgp::PathAttributesTable attrs_;
  // Fresh state remembers the default-constructed attribute set, mirroring
  // the pre-interning behaviour where RouteState held a default
  // PathAttributes (a WWDup-created route later compared its re-announcement
  // against exactly that).
  bgp::AttrSetId default_attr_id_;
  std::array<std::uint64_t, kNumCategories> totals_{};
  std::uint64_t events_ = 0;
  static_assert(kNumCategories <= obs::AttributionMatrix::kMaxClasses);
  obs::AttributionMatrix prov_;
};

}  // namespace iri::core
