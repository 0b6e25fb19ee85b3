// Unit tests for binary persistence: binio primitives, DataSet and R-tree
// round trips, corruption detection.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/binio.h"
#include "core/dataset_io.h"
#include "minhash/siggen.h"
#include "datagen/generators.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --------------------------------------------------------------------------
// binio
// --------------------------------------------------------------------------

TEST(BinIoTest, PrimitivesRoundTrip) {
  const std::string path = TempPath("binio_roundtrip.bin");
  const char magic[8] = {'T', 'E', 'S', 'T', 'M', 'A', 'G', '1'};
  {
    BinaryWriter writer(path, magic);
    ASSERT_TRUE(writer.ok());
    writer.WriteU8(7);
    writer.WriteU32(0xdeadbeef);
    writer.WriteU64(0x0123456789abcdefULL);
    writer.WriteDouble(-1.5e300);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, magic);
  ASSERT_TRUE(reader.status().ok());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(reader.ReadU8(&u8));
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadDouble(&d));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, -1.5e300);
  EXPECT_TRUE(reader.VerifyChecksum().ok());
  std::remove(path.c_str());
}

TEST(BinIoTest, WrongMagicRejected) {
  const std::string path = TempPath("binio_magic.bin");
  const char magic_a[8] = {'A', 'A', 'A', 'A', 'A', 'A', 'A', '1'};
  const char magic_b[8] = {'B', 'B', 'B', 'B', 'B', 'B', 'B', '1'};
  {
    BinaryWriter writer(path, magic_a);
    writer.WriteU32(1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, magic_b);
  EXPECT_TRUE(reader.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BinIoTest, CorruptionDetectedByChecksum) {
  const std::string path = TempPath("binio_corrupt.bin");
  const char magic[8] = {'C', 'O', 'R', 'R', 'U', 'P', 'T', '1'};
  {
    BinaryWriter writer(path, magic);
    for (uint32_t i = 0; i < 100; ++i) writer.WriteU32(i);
    ASSERT_TRUE(writer.Finish().ok());
  }
  // Flip one payload byte.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(50);
    char byte;
    f.seekg(50);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(50);
    f.write(&byte, 1);
  }
  BinaryReader reader(path, magic);
  ASSERT_TRUE(reader.status().ok());
  uint32_t v;
  for (uint32_t i = 0; i < 100; ++i) ASSERT_TRUE(reader.ReadU32(&v));
  EXPECT_TRUE(reader.VerifyChecksum().IsIoError());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// DataSet persistence
// --------------------------------------------------------------------------

TEST(DataSetIoTest, RoundTripIsExact) {
  const std::string path = TempPath("dataset_roundtrip.skyd");
  const DataSet data = GenerateAnticorrelated(5000, 4, 87);
  ASSERT_TRUE(SaveDataSet(data, path).ok());
  auto loaded = LoadDataSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dims(), data.dims());
  EXPECT_EQ(loaded->size(), data.size());
  EXPECT_EQ(loaded->values(), data.values());  // bit-exact doubles
  std::remove(path.c_str());
}

TEST(DataSetIoTest, MissingFileAndBadMagic) {
  EXPECT_TRUE(LoadDataSet("/nonexistent/file.skyd").status().IsIoError());
  const std::string path = TempPath("dataset_bad.skyd");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a skydiver file at all";
  }
  EXPECT_TRUE(LoadDataSet(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(DataSetIoTest, TruncationDetected) {
  const std::string path = TempPath("dataset_trunc.skyd");
  const DataSet data = GenerateIndependent(500, 3, 89);
  ASSERT_TRUE(SaveDataSet(data, path).ok());
  // Truncate the file by 100 bytes.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() - 100));
  }
  EXPECT_FALSE(LoadDataSet(path).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// RTree persistence
// --------------------------------------------------------------------------

TEST(RTreeIoTest, RoundTripPreservesStructureAndAnswers) {
  const std::string path = TempPath("rtree_roundtrip.skyd");
  const DataSet data = GenerateClustered(8000, 3, 91);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->SaveToFile(path).ok());

  auto loaded = RTree::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), tree->size());
  EXPECT_EQ(loaded->height(), tree->height());
  EXPECT_EQ(loaded->PageCount(), tree->PageCount());
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  // Queries answer identically.
  const std::vector<Coord> lo{0.2, 0.2, 0.2}, hi{0.7, 0.6, 0.9};
  EXPECT_EQ(loaded->RangeCount(lo, hi), tree->RangeCount(lo, hi));
  for (RowId probe : {0u, 100u, 4000u}) {
    EXPECT_EQ(loaded->DominatedCount(data.row(probe)),
              tree->DominatedCount(data.row(probe)));
  }
  // BBS over the loaded tree gives the same skyline.
  EXPECT_EQ(SkylineBBS(data, *loaded)->rows, SkylineBBS(data, *tree)->rows);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, DynamicTreeAlsoRoundTrips) {
  const std::string path = TempPath("rtree_dyn.skyd");
  const DataSet data = GenerateIndependent(2000, 4, 93);
  auto tree = RTree::InsertLoad(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  auto loaded = RTree::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->CheckInvariants().ok());
  EXPECT_EQ(loaded->size(), 2000u);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, CorruptedFileRejected) {
  const std::string path = TempPath("rtree_corrupt.skyd");
  const DataSet data = GenerateIndependent(1000, 2, 95);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  EXPECT_FALSE(RTree::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(RTreeIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(RTree::LoadFromFile("/nonexistent/tree.skyd").status().IsIoError());
}

// --------------------------------------------------------------------------
// SignatureMatrix persistence
// --------------------------------------------------------------------------

TEST(SignatureIoTest, RoundTripPreservesEstimates) {
  const std::string path = TempPath("signatures.skyd");
  const DataSet data = GenerateIndependent(2000, 3, 97);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(64, data.size(), 99);
  const auto sig = SigGenIF(data, skyline, family).value();
  ASSERT_TRUE(sig.signatures.SaveToFile(path).ok());

  auto loaded = SignatureMatrix::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->signature_size(), sig.signatures.signature_size());
  ASSERT_EQ(loaded->columns(), sig.signatures.columns());
  for (size_t a = 0; a < skyline.size(); ++a) {
    for (size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(loaded->at(a, i), sig.signatures.at(a, i));
    }
  }
  // Phase 2 can re-run from the reloaded fingerprints.
  EXPECT_DOUBLE_EQ(loaded->EstimatedDistance(0, skyline.size() - 1),
                   sig.signatures.EstimatedDistance(0, skyline.size() - 1));
  std::remove(path.c_str());
}

// Writes a SKYDSIG1 file slot by slot through BinaryWriter (valid
// checksum), the way any writer of the 64-bit on-disk format would.
void WriteSignatureFile(const std::string& path, uint64_t t, uint64_t m,
                        const std::vector<uint64_t>& slots) {
  const char magic[8] = {'S', 'K', 'Y', 'D', 'S', 'I', 'G', '1'};
  BinaryWriter writer(path, magic);
  ASSERT_TRUE(writer.ok());
  writer.WriteU64(t);
  writer.WriteU64(m);
  for (uint64_t v : slots) writer.WriteU64(v);
  ASSERT_TRUE(writer.Finish().ok());
}

TEST(SignatureIoTest, SixtyFourBitSlotFilesLoadUnchanged) {
  // The on-disk slots stay 64-bit: empty slots and every value below 2^32
  // read back exactly as written, and save back to the same bytes.
  const std::string path = TempPath("signatures_wide_format.skyd");
  const std::vector<uint64_t> slots = {0, kEmptySlot, 4294967290ULL, 17, kEmptySlot, 1};
  WriteSignatureFile(path, 3, 2, slots);
  auto loaded = SignatureMatrix::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t j = 0; j < 2; ++j) {
    for (size_t i = 0; i < 3; ++i) EXPECT_EQ(loaded->at(j, i), slots[j * 3 + i]);
  }
  const std::string copy = TempPath("signatures_wide_format_copy.skyd");
  ASSERT_TRUE(loaded->SaveToFile(copy).ok());
  std::ifstream a(path, std::ios::binary), b(copy, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

TEST(SignatureIoTest, RejectsSlotsWiderThan32Bits) {
  const std::string path = TempPath("signatures_wide_slot.skyd");
  // 2^32 - 1 is below 2^32 but is the stored empty marker, never a hash.
  for (const uint64_t bad : {uint64_t{kEmptySlot32}, kSlotLimit, kSlotLimit + 5,
                             kEmptySlot - 1}) {
    WriteSignatureFile(path, 2, 1, {3, bad});
    const auto loaded = SignatureMatrix::LoadFromFile(path);
    EXPECT_TRUE(loaded.status().IsIoError()) << bad << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SignatureIoTest, RejectsForeignFiles) {
  const std::string path = TempPath("signatures_foreign.skyd");
  const DataSet data = GenerateIndependent(100, 2, 101);
  ASSERT_TRUE(SaveDataSet(data, path).ok());  // a SKYDDAT1 file, not SKYDSIG1
  EXPECT_TRUE(SignatureMatrix::LoadFromFile(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skydiver
