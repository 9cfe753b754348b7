// Unit coverage for the causal-provenance layer (obs/provenance.h): cause
// allocation, ambient scoping, depth bumping, the attribution matrix, and
// the fixed-order merge contract. The ON-only sections touch CauseTag's
// data members, which the IRI_PROVENANCE=OFF stand-in deliberately lacks,
// so they are preprocessor-guarded; the OFF build instead proves the
// stand-ins swallow every call at zero cost.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <string>

namespace iri::obs {
namespace {

#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED

TEST(ProvenanceContext, AllocatesDenseIdsInOrder) {
  ProvenanceContext ctx;
  const CauseTag a = ctx.Allocate(CauseKind::kCustomerFlap, TimePoint::Origin());
  const CauseTag b = ctx.Allocate(CauseKind::kMaintenance,
                                  TimePoint::Origin() + Duration::Seconds(5));
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(a.Kind(), CauseKind::kCustomerFlap);
  EXPECT_EQ(a.Depth(), 0u);
  ASSERT_EQ(ctx.Count(), 2u);
  EXPECT_EQ(ctx.infos()[0].kind, CauseKind::kCustomerFlap);
  EXPECT_EQ(ctx.infos()[1].kind, CauseKind::kMaintenance);
  EXPECT_EQ(ctx.infos()[1].injected,
            TimePoint::Origin() + Duration::Seconds(5));
}

TEST(ProvenanceContext, CauseScopeSetsAndRestoresAmbientCause) {
  ProvenanceContext ctx;
  EXPECT_TRUE(ctx.Current().IsNull());
  {
    CauseScope outer(&ctx, CauseKind::kCsuEpisode, TimePoint::Origin());
    EXPECT_EQ(ctx.Current().Kind(), CauseKind::kCsuEpisode);
    {
      const CauseTag inner_tag =
          ctx.Allocate(CauseKind::kPathoSpray, TimePoint::Origin());
      CauseScope inner(&ctx, inner_tag);
      EXPECT_EQ(ctx.Current().id, inner_tag.id);
    }
    EXPECT_EQ(ctx.Current().Kind(), CauseKind::kCsuEpisode);
  }
  EXPECT_TRUE(ctx.Current().IsNull());
}

TEST(CauseTag, BumpedSaturatesDepth) {
  CauseTag tag{1, static_cast<std::uint8_t>(CauseKind::kUpgrade), 0};
  tag = tag.Bumped();
  EXPECT_EQ(tag.Depth(), 1u);
  tag.depth = 255;
  EXPECT_EQ(tag.Bumped().Depth(), 255u) << "depth must saturate, not wrap";
  EXPECT_EQ(tag.Bumped().id, tag.id) << "bumping must preserve identity";
}

TEST(AttributionMatrix, RecordsMatrixCellsAndBlastRadius) {
  AttributionMatrix prov;
  const CauseTag cause{3, static_cast<std::uint8_t>(CauseKind::kMaintenance),
                       2};
  const TimePoint t0 = TimePoint::Origin() + Duration::Seconds(10);
  const TimePoint t1 = TimePoint::Origin() + Duration::Seconds(40);
  prov.Record(/*cls=*/1, cause, t0, /*first_touch=*/true);
  prov.Record(/*cls=*/1, cause, t1, /*first_touch=*/false);
  prov.Record(/*cls=*/2, CauseTag{}, t1, /*first_touch=*/true);

  EXPECT_EQ(prov.attributed(), 2u);
  EXPECT_EQ(prov.unattributed(), 1u);
  EXPECT_EQ(prov.depth_peak(), 2u);
  EXPECT_EQ(prov.MatrixAt(1, static_cast<std::size_t>(CauseKind::kMaintenance),
                          2),
            2u);
  EXPECT_EQ(prov.ClassTotal(1), 2u);
  EXPECT_EQ(prov.ClassAttributed(1), 2u);
  EXPECT_EQ(prov.ClassTotal(2), 1u);
  EXPECT_EQ(prov.ClassAttributed(2), 0u);
  EXPECT_EQ(prov.DepthBucketTotal(2), 2u);

  ASSERT_EQ(prov.cause_stats().size(), 3u) << "stats are id-indexed (id-1)";
  const auto& s = prov.cause_stats()[2];
  EXPECT_EQ(s.updates, 2u);
  EXPECT_EQ(s.prefixes, 1u) << "only first touches count toward blast radius";
  EXPECT_EQ(s.max_depth, 2u);
  EXPECT_EQ(s.first_seen, t0);
  EXPECT_EQ(s.last_seen, t1);
}

TEST(AttributionMatrix, DepthBucketsOverflowIntoLast) {
  AttributionMatrix prov;
  const CauseTag deep{1, static_cast<std::uint8_t>(CauseKind::kPathChange),
                      42};
  prov.Record(0, deep, TimePoint::Origin(), true);
  EXPECT_EQ(prov.DepthBucketTotal(AttributionMatrix::kDepthBuckets - 1), 1u);
  EXPECT_EQ(prov.depth_peak(), 42u) << "peak keeps the unbucketed depth";
}

TEST(AttributionMatrix, MergeSumsMatrixAndCombinesStats) {
  const TimePoint t0 = TimePoint::Origin();
  const TimePoint t1 = TimePoint::Origin() + Duration::Minutes(1);
  const CauseTag cause{1, static_cast<std::uint8_t>(CauseKind::kOscillation),
                       1};
  AttributionMatrix a, b;
  a.Record(0, cause, t0, true);
  b.Record(0, cause, t1, true);
  b.Record(3, CauseTag{}, t1, true);

  AttributionMatrix merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.attributed(), 2u);
  EXPECT_EQ(merged.unattributed(), 1u);
  EXPECT_EQ(
      merged.MatrixAt(0, static_cast<std::size_t>(CauseKind::kOscillation), 1),
      2u);
  ASSERT_EQ(merged.cause_stats().size(), 1u);
  EXPECT_EQ(merged.cause_stats()[0].updates, 2u);
  EXPECT_EQ(merged.cause_stats()[0].prefixes, 2u);
  EXPECT_EQ(merged.cause_stats()[0].first_seen, t0);
  EXPECT_EQ(merged.cause_stats()[0].last_seen, t1);
  EXPECT_TRUE(AttributionMatrix{}.Empty());
  EXPECT_FALSE(merged.Empty());
}

#else  // IRI_PROVENANCE compiled out

TEST(ProvenanceContext, OffBuildAllocatesNothing) {
  ProvenanceContext ctx;
  const CauseTag a = ctx.Allocate(CauseKind::kCustomerFlap, TimePoint::Origin());
  EXPECT_TRUE(a.IsNull());
  EXPECT_EQ(a.Kind(), CauseKind::kNone);
  EXPECT_EQ(ctx.Count(), 0u);
  EXPECT_TRUE(ctx.Current().IsNull());
  {
    CauseScope scope(&ctx, CauseKind::kCsuEpisode, TimePoint::Origin());
    EXPECT_TRUE(ctx.Current().IsNull()) << "OFF scopes must install nothing";
  }
  EXPECT_TRUE(ctx.Current().IsNull());
}

TEST(AttributionMatrix, OffBuildIsZeroCost) {
  // The OFF stand-ins must take no space in the structs that embed them via
  // [[no_unique_address]] and swallow every call without effect.
  AttributionMatrix prov;
  prov.Record(0, CauseTag{}, TimePoint::Origin(), true);
  EXPECT_EQ(prov.attributed(), 0u);
  EXPECT_EQ(prov.unattributed(), 0u);
  EXPECT_TRUE(prov.Empty());
  CauseVec vec;
  vec.push_back(CauseTag{});
  EXPECT_TRUE(vec.empty()) << "OFF-mode CauseVec must stay empty";
  EXPECT_EQ(CauseTag{}.Bumped().Depth(), 0u);
}

#endif  // IRI_PROVENANCE_ENABLED

TEST(CauseKindNames, EveryKindHasAStableName) {
  for (std::size_t k = 0; k < kNumCauseKinds; ++k) {
    const char* name = ToString(static_cast<CauseKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(ToString(CauseKind::kNone), "none");
  EXPECT_STREQ(ToString(CauseKind::kSessionRedump), "session_redump");
}

}  // namespace
}  // namespace iri::obs
