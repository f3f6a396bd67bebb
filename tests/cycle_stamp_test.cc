#include "common/cycle_stamp.h"

#include <gtest/gtest.h>

#include "client/read_txn.h"
#include "common/rng.h"
#include "matrix/control_view.h"
#include "matrix/f_matrix.h"
#include "matrix/kernels.h"

namespace bcc {
namespace {

TEST(CycleStampTest, ModulusFromBits) {
  EXPECT_EQ(CycleStampCodec(8).modulus(), 256u);
  EXPECT_EQ(CycleStampCodec(8).max_cycles(), 255u);
  EXPECT_EQ(CycleStampCodec(1).modulus(), 2u);
  EXPECT_EQ(CycleStampCodec(16).modulus(), 65536u);
}

TEST(CycleStampTest, RoundTripWithinWindow) {
  const CycleStampCodec codec(8);
  for (Cycle current = 0; current < 2000; current += 7) {
    for (Cycle age = 0; age <= codec.max_cycles() && age <= current; age += 13) {
      const Cycle absolute = current - age;
      EXPECT_EQ(codec.Decode(codec.Encode(absolute), current), absolute)
          << "current=" << current << " absolute=" << absolute;
    }
  }
}

TEST(CycleStampTest, ExactAtWindowEdge) {
  const CycleStampCodec codec(4);  // window of 16 cycles
  const Cycle current = 1000;
  const Cycle oldest_exact = current - codec.max_cycles();
  EXPECT_EQ(codec.Decode(codec.Encode(oldest_exact), current), oldest_exact);
}

TEST(CycleStampTest, BeyondWindowDecodesTooRecentNeverFuture) {
  // Stamps older than the window alias to a more recent cycle. That bias
  // direction is what makes wraparound safe for the protocol: a too-recent
  // decoded commit cycle can only cause spurious aborts (C(i,j) >= cycle),
  // never a false acceptance.
  const CycleStampCodec codec(8);
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const Cycle current = 300 + rng.NextBounded(100000);
    const Cycle absolute = rng.NextBounded(current);
    const Cycle decoded = codec.Decode(codec.Encode(absolute), current);
    EXPECT_LE(decoded, current);
    EXPECT_GE(decoded, absolute);
    EXPECT_EQ((decoded - absolute) % codec.modulus(), 0u);
  }
}

TEST(CycleStampTest, NearEpochClampsAtZero) {
  const CycleStampCodec codec(8);
  // Residue 200 at current cycle 10: no absolute cycle <= 10 has residue
  // 200; the decoder clamps to 0 rather than inventing a future cycle.
  EXPECT_EQ(codec.Decode(200, 10), 0u);
}

TEST(CycleStampTest, ClampUnreachableFromValidEncodesAndNeverUnderestimates) {
  // Regression for the clamp-to-0 path (`back > current`): exhaustively, for
  // small codecs, (a) every residue some valid stamp c <= current produces
  // decodes to a value >= c (never an underestimate, in particular never the
  // 0 clamp unless c == 0 decodes exactly), and (b) the clamp fires only for
  // residues NO valid encode can produce — i.e. a well-formed broadcast
  // never reaches it.
  for (unsigned bits : {2u, 3u, 8u}) {
    const CycleStampCodec codec(bits);
    const uint64_t m = codec.modulus();
    for (Cycle current = 0; current < 3 * m + 2; ++current) {
      // (a) valid stamps never decode below themselves.
      for (Cycle c = 0; c <= current; ++c) {
        const Cycle decoded = codec.Decode(codec.Encode(c), current);
        ASSERT_GE(decoded, c) << "bits=" << bits << " current=" << current << " c=" << c;
        ASSERT_LE(decoded, current);
        ASSERT_EQ((decoded - c) % m, 0u);
      }
      // (b) the clamp (decode == 0 with a nonzero "back" distance, i.e.
      // back > current) is hit only by residues unproducible at <= current.
      for (uint32_t r = 0; r < m; ++r) {
        const uint64_t back = (current - r) & (m - 1);
        if (back <= current) continue;  // normal branch
        bool producible = false;
        for (Cycle c = 0; c <= current && !producible; ++c) {
          producible = codec.Encode(c) == r;
        }
        ASSERT_FALSE(producible)
            << "residue " << r << " takes the clamp at current=" << current
            << " yet a valid stamp produces it";
        ASSERT_EQ(codec.Decode(r, current), 0u);
      }
    }
  }
}

TEST(CycleStampTest, WindowedDecodeCausesSpuriousAbortsOnlyThroughFMatrix) {
  // End-to-end half of the satellite: run randomized control matrices and
  // read sets through FMatrix::ReadCondition twice — once with the true
  // (unbounded) stamps, once with stamps round-tripped through the windowed
  // codec — and assert the decoded matrix accepts only reads the true matrix
  // accepts. With ts = 2 most of the history is out of window, so the
  // aliasing (and, for garbage-free inputs, the absence of the clamp) is
  // exercised hard.
  for (unsigned bits : {2u, 3u}) {
    const CycleStampCodec codec(bits);
    Rng rng(1234 + bits);
    const uint32_t n = 6;
    for (int trial = 0; trial < 2000; ++trial) {
      const Cycle current = rng.NextBounded(40);
      FMatrix true_m(n), decoded_m(n);
      for (ObjectId j = 0; j < n; ++j) {
        for (ObjectId i = 0; i < n; ++i) {
          const Cycle c = rng.NextBounded(static_cast<uint64_t>(current) + 1);
          true_m.Set(i, j, c);
          decoded_m.Set(i, j, codec.Decode(codec.Encode(c), current));
        }
      }
      std::vector<ReadRecord> reads;
      const uint32_t num_reads = 1 + static_cast<uint32_t>(rng.NextBounded(3));
      for (uint32_t k = 0; k < num_reads; ++k) {
        reads.push_back({static_cast<ObjectId>(rng.NextBounded(n)),
                         rng.NextBounded(static_cast<uint64_t>(current) + 1)});
      }
      for (ObjectId j = 0; j < n; ++j) {
        if (ControlView(decoded_m).ReadConditionScan(reads, j) == kReadConditionPass) {
          ASSERT_EQ(ControlView(true_m).ReadConditionScan(reads, j), kReadConditionPass)
              << "bits=" << bits << " trial=" << trial
              << ": decoded matrix accepted a read the true matrix rejects";
        }
      }
    }
  }
}

TEST(CycleStampTest, WindowedDecodeCausesSpuriousAbortsOnlyThroughMcVector) {
  // Same property through the reduced-vector conditions as clients run them
  // (ReadOnlyTxnProtocol with and without the codec): a client decoding the
  // TS-bit MC stamps (values[i].cycle) accepts a read only if the exact
  // stamps accept it. Each trial is one transaction reading an object every
  // few cycles while random commits move the on-air stamps.
  for (unsigned bits : {2u, 3u}) {
    const CycleStampCodec codec(bits);
    Rng rng(4321 + bits);
    const uint32_t n = 6;
    uint64_t spurious = 0;
    for (const Algorithm algorithm : {Algorithm::kDatacycle, Algorithm::kRMatrix}) {
      for (int trial = 0; trial < 1000; ++trial) {
        ReadOnlyTxnProtocol exact(algorithm);
        ReadOnlyTxnProtocol decoded(algorithm, codec);
        CycleSnapshot snap;
        snap.values = ObjectValues(n);
        Cycle written_through = 0;  // commits of cycles <= this are on the air
        snap.cycle = 1 + rng.NextBounded(8);
        for (int read = 0; read < 4; ++read) {
          for (; written_through + 1 < snap.cycle; ++written_through) {
            for (ObjectId i = 0; i < n; ++i) {
              if (rng.NextBernoulli(0.15)) {
                snap.values.Set(i, ObjectVersion{1, kInitTxn, written_through + 1});
              }
            }
          }
          const auto ob = static_cast<ObjectId>(rng.NextBounded(n));
          const bool decoded_ok = decoded.Read(snap, ob).ok();
          const bool exact_ok = exact.Read(snap, ob).ok();
          if (decoded_ok) {
            ASSERT_TRUE(exact_ok) << "bits=" << bits << " trial=" << trial
                                  << ": decoded stamps accepted a read the true ones reject";
          }
          if (!decoded_ok) {
            spurious += exact_ok ? 1 : 0;
            break;
          }
          snap.cycle += 1 + rng.NextBounded(2 * codec.modulus());
        }
      }
    }
    EXPECT_GT(spurious, 0u) << "bits=" << bits << ": the window never aliased a stamp";
  }
}

TEST(CycleStampTest, EncodeMasksHighBits) {
  const CycleStampCodec codec(8);
  EXPECT_EQ(codec.Encode(256), 0u);
  EXPECT_EQ(codec.Encode(511), 255u);
  EXPECT_EQ(codec.Encode(0x1234567890ull), codec.Encode(0x1234567890ull & 0xff));
}

}  // namespace
}  // namespace bcc
