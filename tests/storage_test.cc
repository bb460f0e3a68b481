// Tests of the storage primitives the SQL engine's spill paths use
// (DESIGN.md §13): the exact row codec, positional POSIX file I/O and the
// spill-file run framing.

#include <gtest/gtest.h>

#include <string>

#include "storage/posix_file.h"
#include "storage/row_codec.h"
#include "storage/spill.h"

namespace minerule::storage {
namespace {

TEST(RowCodecTest, RoundTripsEveryValueType) {
  Row row = {Value::Null(),
             Value::Boolean(true),
             Value::Boolean(false),
             Value::Integer(-42),
             Value::Integer(int64_t{1} << 62),
             Value::Double(3.141592653589793),
             Value::Double(-0.0),
             Value::String(""),
             Value::String(std::string("nul\0byte", 8)),
             Value::String("plain"),
             Value::Date(19000)};
  std::string encoded;
  EncodeRow(row, &encoded);

  Row decoded;
  size_t pos = 0;
  ASSERT_TRUE(DecodeRow(encoded.data(), encoded.size(), &pos, &decoded).ok());
  EXPECT_EQ(pos, encoded.size());
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_TRUE(row[i].TotalEquals(decoded[i])) << "value " << i;
  }
}

TEST(RowCodecTest, DecodeClearsPreviousContent) {
  std::string encoded;
  EncodeRow({Value::Integer(7)}, &encoded);
  Row out = {Value::String("stale"), Value::String("stale")};
  size_t pos = 0;
  ASSERT_TRUE(DecodeRow(encoded.data(), encoded.size(), &pos, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].TotalEquals(Value::Integer(7)));
}

TEST(RowCodecTest, TruncatedRecordIsAnError) {
  std::string encoded;
  EncodeRow({Value::Integer(7), Value::String("hello")}, &encoded);
  // Every strict prefix must fail cleanly, never read past the end.
  for (size_t len = 0; len < encoded.size(); ++len) {
    Row out;
    size_t pos = 0;
    EXPECT_FALSE(DecodeRow(encoded.data(), len, &pos, &out).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(RowCodecTest, U64RoundTrip) {
  std::string buf;
  EncodeU64(0, &buf);
  EncodeU64(UINT64_C(0xdeadbeefcafebabe), &buf);
  size_t pos = 0;
  uint64_t a = 1, b = 0;
  ASSERT_TRUE(DecodeU64(buf.data(), buf.size(), &pos, &a).ok());
  ASSERT_TRUE(DecodeU64(buf.data(), buf.size(), &pos, &b).ok());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, UINT64_C(0xdeadbeefcafebabe));
  EXPECT_FALSE(DecodeU64(buf.data(), buf.size(), &pos, &a).ok());
}

TEST(PosixFileTest, PositionalReadWriteAndTruncate) {
  auto file = PosixFile::CreateTemp("");
  ASSERT_TRUE(file.ok()) << file.status();
  PosixFile* f = file.value().get();

  ASSERT_TRUE(f->WriteAt(0, "hello", 5).ok());
  ASSERT_TRUE(f->WriteAt(100, "world", 5).ok());  // sparse extend
  auto size = f->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 105u);

  char buf[5];
  ASSERT_TRUE(f->ReadAt(100, buf, 5).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
  // Exact reads past EOF fail; partial reads report what was there.
  EXPECT_FALSE(f->ReadAt(103, buf, 5).ok());
  auto partial = f->ReadAtPartial(103, buf, 5);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value(), 2u);
  auto at_eof = f->ReadAtPartial(105, buf, 5);
  ASSERT_TRUE(at_eof.ok());
  EXPECT_EQ(at_eof.value(), 0u);

  ASSERT_TRUE(f->Truncate(5).ok());
  auto shrunk = f->Size();
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(shrunk.value(), 5u);
}

TEST(SpillFileTest, RunsReadBackExactlyAndConcurrentlyWithAppends) {
  auto spill = SpillFile::Create("");
  ASSERT_TRUE(spill.ok()) << spill.status();
  SpillFile* file = spill.value().get();

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(file->Append("first-" + std::to_string(i)).ok());
  }
  auto run1 = file->FinishRun();
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1.value().records, 100u);

  // Read run 1 while run 2 is still being appended.
  SpillFile::Reader reader = file->OpenRun(run1.value());
  std::string record;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(file->Append("second-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto more = reader.Next(&record);
    ASSERT_TRUE(more.ok()) << more.status();
    ASSERT_TRUE(more.value());
    EXPECT_EQ(record, "first-" + std::to_string(i));
  }
  auto end = reader.Next(&record);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value());

  auto run2 = file->FinishRun();
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2.value().records, 50u);
  EXPECT_EQ(run2.value().offset, run1.value().offset + run1.value().bytes);
  EXPECT_EQ(file->bytes_written(), run2.value().offset + run2.value().bytes);
}

}  // namespace
}  // namespace minerule::storage
