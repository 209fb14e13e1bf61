#include <gtest/gtest.h>

#include "src/storage/catalog.h"
#include "src/storage/column.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

TEST(ColumnTest, PlainColumn) {
  Column c = Column::Plain(Tensor::FromVector(std::vector<float>{1, 2, 3}));
  EXPECT_EQ(c.encoding(), Encoding::kPlain);
  EXPECT_EQ(c.length(), 3);
  EXPECT_FALSE(c.IsTensorColumn());
}

TEST(ColumnTest, TensorColumnHasRank) {
  Column c = Column::Plain(Tensor::Zeros({5, 3, 8, 8}));
  EXPECT_TRUE(c.IsTensorColumn());
  EXPECT_EQ(c.length(), 5);
}

TEST(ColumnTest, DictionaryIsOrderPreserving) {
  Column c = Column::FromStrings({"pear", "apple", "pear", "banana"});
  EXPECT_EQ(c.encoding(), Encoding::kDictionary);
  // Codes sorted by string: apple=0, banana=1, pear=2.
  EXPECT_EQ(c.data().ToVector<int64_t>(),
            (std::vector<int64_t>{2, 0, 2, 1}));
  EXPECT_EQ(c.DecodeStrings(),
            (std::vector<std::string>{"pear", "apple", "pear", "banana"}));
  EXPECT_EQ(c.DictionaryCode("banana"), 1);
  EXPECT_EQ(c.DictionaryCode("missing"), -1);
  // Range lookups for order-preserving predicates.
  EXPECT_EQ(c.LowerBoundCode("b"), 1);
  EXPECT_EQ(c.UpperBoundCode("banana"), 2);
}

TEST(ColumnTest, ProbabilityEncodingDecodesToArgmaxDomainValue) {
  Tensor probs = Tensor::FromVector(
      std::vector<float>{0.1f, 0.9f, 0.8f, 0.2f}, {2, 2});
  Column c = Column::Probability(probs, {10.0, 20.0});
  EXPECT_EQ(c.encoding(), Encoding::kProbability);
  Tensor hard = c.DecodeValues();
  EXPECT_EQ(hard.ToVector<float>(), (std::vector<float>{20, 10}));
}

TEST(ColumnTest, SelectPreservesEncoding) {
  Column c = Column::FromStrings({"a", "b", "c"});
  Column sel = c.Select(Tensor::FromVector(std::vector<int64_t>{2, 0}));
  EXPECT_EQ(sel.DecodeStrings(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(sel.encoding(), Encoding::kDictionary);
}

// Concatenating dictionary parts gives what encoding the decoded rows from
// scratch gives: the same strings, dictionary and codes, so codes order
// like the strings.
void ExpectConcatEncodesRows(const std::vector<Column>& parts) {
  std::vector<std::string> rows;
  for (const Column& p : parts) {
    for (std::string& s : p.DecodeStrings()) rows.push_back(std::move(s));
  }
  const Column got = Column::Concat(parts);
  const Column want = Column::FromStrings(rows);
  EXPECT_EQ(got.DecodeStrings(), rows);
  EXPECT_EQ(got.dictionary(), want.dictionary());
  EXPECT_EQ(got.data().ToVector<int64_t>(), want.data().ToVector<int64_t>());
}

TEST(ColumnTest, ConcatMergesDifferentDictionaries) {
  {
    SCOPED_TRACE("disjoint dictionaries");
    ExpectConcatEncodesRows({Column::FromStrings({"b", "d", "b"}),
                             Column::FromStrings({"c", "a"})});
  }
  {
    SCOPED_TRACE("a new string sorting before every existing one");
    ExpectConcatEncodesRows({Column::FromStrings({"m", "n", "m"}),
                             Column::FromStrings({"a"}),
                             Column::FromStrings({"n", "z"})});
  }
  {
    SCOPED_TRACE("content-equal, distinct dictionary objects");
    const Column a = Column::FromStrings({"x", "y"});
    const Column b = Column::FromStrings({"y", "x", "y"});
    ASSERT_NE(&a.dictionary(), &b.dictionary());
    ExpectConcatEncodesRows({a, b});
  }
  {
    SCOPED_TRACE("a dictionary holding strings no row uses");
    const Column all = Column::FromStrings({"a", "b", "c"});
    ExpectConcatEncodesRows(
        {all.Select(Tensor::FromVector(std::vector<int64_t>{2})),
         Column::FromStrings({"b"})});
  }
  {
    SCOPED_TRACE("one shared dictionary concatenates codes");
    const Column c = Column::FromStrings({"p", "q", "r"});
    const Column got = Column::Concat({c.SliceRows(2, 1), c.SliceRows(0, 2)});
    EXPECT_EQ(&got.dictionary(), &c.dictionary());
    EXPECT_EQ(got.data().ToVector<int64_t>(),
              (std::vector<int64_t>{2, 0, 1}));
  }
}

TEST(TableTest, LiveViewAfterAppendAndDeletes) {
  // A full first segment, so the append starts a second one; the second
  // append then extends that tail. Each batch brings strings of its own,
  // one sorting before every earlier string.
  std::vector<int64_t> ids;
  std::vector<std::string> tags;
  for (int64_t i = 0; i < kSegmentTargetRows; ++i) {
    ids.push_back(i);
    tags.push_back("t" + std::to_string(i % 7));
  }
  auto base =
      TableBuilder("t").AddInt64("id", ids).AddStrings("tag", tags).Build();
  ASSERT_TRUE(base.ok());
  auto appended = (*base)->WithAppended(
      {Column::Plain(Tensor::FromVector(std::vector<int64_t>{-1, -2})),
       Column::FromStrings({"zz", "t3"})});
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  appended = (*appended)->WithAppended(
      {Column::Plain(Tensor::FromVector(std::vector<int64_t>{-3})),
       Column::FromStrings({"aardvark"})});
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ((*appended)->num_segments(), 2);
  ids.insert(ids.end(), {-1, -2, -3});
  tags.insert(tags.end(), {"zz", "t3", "aardvark"});

  // Delete live positions on both sides of the segment edge.
  const std::vector<int64_t> doomed = {0, 5, kSegmentTargetRows - 1,
                                       kSegmentTargetRows + 1};
  auto deleted = (*appended)->WithDeleted(doomed);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    ids.erase(ids.begin() + *it);
    tags.erase(tags.begin() + *it);
  }
  const Table& live = **deleted;
  ASSERT_EQ(live.num_rows(), static_cast<int64_t>(ids.size()));
  EXPECT_EQ(live.column(0).data().ToVector<int64_t>(), ids);
  EXPECT_EQ(live.column(1).DecodeStrings(), tags);
  EXPECT_EQ(live.column(1).dictionary(),
            Column::FromStrings(tags).dictionary());

  std::vector<int64_t> everything(ids.size());
  for (size_t i = 0; i < everything.size(); ++i) {
    everything[i] = static_cast<int64_t>(i);
  }
  auto emptied = live.WithDeleted(everything);
  ASSERT_TRUE(emptied.ok()) << emptied.status().ToString();
  EXPECT_EQ((*emptied)->num_rows(), 0);
  EXPECT_EQ((*emptied)->column(0).length(), 0);
  EXPECT_TRUE((*emptied)->column(1).DecodeStrings().empty());
}

TEST(TableTest, CreateValidatesShapes) {
  auto bad = Table::Create(
      "t", {"a", "b"},
      {Column::Plain(Tensor::Ones({2})), Column::Plain(Tensor::Ones({3}))});
  EXPECT_FALSE(bad.ok());

  auto dup = Table::Create(
      "t", {"a", "A"},
      {Column::Plain(Tensor::Ones({2})), Column::Plain(Tensor::Ones({2}))});
  EXPECT_FALSE(dup.ok());
}

TEST(TableTest, BuilderAndLookup) {
  auto table = TableBuilder("t")
                   .AddInt64("id", {1, 2})
                   .AddStrings("name", {"x", "y"})
                   .AddTensor("img", Tensor::Zeros({2, 1, 4, 4}))
                   .Build();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2);
  EXPECT_EQ((*table)->num_columns(), 3);
  auto idx = (*table)->ColumnIndex("NAME");  // case-insensitive
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1);
  EXPECT_FALSE((*table)->ColumnIndex("missing").ok());
}

TEST(TableTest, ToDeviceMovesColumns) {
  auto table = TableBuilder("t")
                   .AddFloat32("x", {1, 2, 3})
                   .AddStrings("s", {"a", "b", "a"})
                   .Build();
  ASSERT_TRUE(table.ok());
  auto moved = (*table)->To(Device::kAccel);
  for (int64_t c = 0; c < 2; ++c) {
    const Column& own = (*table)->column(c);
    const Column& got = moved->column(c);
    EXPECT_EQ(got.data().device(), Device::kAccel);
    EXPECT_EQ(own.data().device(), Device::kCpu);
    // A retag: the moved column shares the table's buffer and dictionary.
    EXPECT_EQ(got.data().impl()->buffer, own.data().impl()->buffer);
    EXPECT_EQ(&got.dictionary(), &own.dictionary());
  }
}

TEST(CatalogTest, RegisterLookupDrop) {
  Catalog catalog;
  auto table = TableBuilder("t").AddFloat32("x", {1}).Build();
  ASSERT_TRUE(catalog.RegisterTable("MyTable", table.value()).ok());
  EXPECT_TRUE(catalog.GetTable("mytable").ok());
  EXPECT_TRUE(catalog.GetTable("MYTABLE").ok());
  EXPECT_FALSE(catalog.GetTable("other").ok());

  // replace=false refuses to clobber.
  EXPECT_EQ(
      catalog.RegisterTable("mytable", table.value(), /*replace=*/false)
          .code(),
      StatusCode::kAlreadyExists);
  // replace=true (default) overwrites.
  EXPECT_TRUE(catalog.RegisterTable("mytable", table.value()).ok());

  EXPECT_TRUE(catalog.DropTable("mytable").ok());
  EXPECT_FALSE(catalog.GetTable("mytable").ok());
  EXPECT_EQ(catalog.DropTable("mytable").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, RejectsBadInput) {
  Catalog catalog;
  EXPECT_FALSE(catalog.RegisterTable("x", nullptr).ok());
  auto table = TableBuilder("t").AddFloat32("x", {1}).Build();
  EXPECT_FALSE(catalog.RegisterTable("", table.value()).ok());
}

}  // namespace
}  // namespace tdp
