#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/runtime/session.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace tdp {
namespace sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x >= 1.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. kEnd
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[8].type, TokenType::kOperator);
  EXPECT_EQ((*tokens)[8].text, ">=");
  EXPECT_EQ((*tokens)[9].type, TokenType::kNumber);
  EXPECT_FALSE((*tokens)[9].is_integer);
  EXPECT_DOUBLE_EQ((*tokens)[9].number_value, 1.5);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(LexerTest, StringsBothQuoteStyles) {
  auto tokens = Tokenize("'single' \"double\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "single");
  EXPECT_EQ((*tokens)[1].text, "double");
}

TEST(LexerTest, CommentsAndNumbers) {
  auto tokens = Tokenize("1 -- a comment\n2.5e3 .5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].number_value, 1.0);
  EXPECT_TRUE((*tokens)[0].is_integer);
  EXPECT_DOUBLE_EQ((*tokens)[1].number_value, 2500.0);
  EXPECT_DOUBLE_EQ((*tokens)[2].number_value, 0.5);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT a ! b").ok());
  EXPECT_FALSE(Tokenize("SELECT a # b").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b + 1 AS c FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->select_list.size(), 2u);
  EXPECT_EQ((*stmt)->select_list[1].alias, "c");
  ASSERT_NE((*stmt)->from, nullptr);
  EXPECT_EQ((*stmt)->from->kind, TableRefKind::kBaseTable);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT 1 + 2 * 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list[0].expr->ToString(), "(1 + (2 * 3))");

  auto cmp = Parse("SELECT a FROM t WHERE x + 1 > 2 AND y < 3 OR z = 4");
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ((*cmp)->where->ToString(),
            "((((x + 1) > 2) AND (y < 3)) OR (z = 4))");
}

TEST(ParserTest, BetweenAndInDesugar) {
  auto stmt = Parse("SELECT a FROM t WHERE x BETWEEN 1 AND 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(), "((x >= 1) AND (x <= 3))");

  auto in = Parse("SELECT a FROM t WHERE x IN (1, 2)");
  ASSERT_TRUE(in.ok());
  EXPECT_EQ((*in)->where->ToString(), "((x = 1) OR (x = 2))");
}

TEST(ParserTest, FullClauseSet) {
  auto stmt = Parse(
      "SELECT region, COUNT(*) AS n FROM sales WHERE amount > 10 GROUP BY "
      "region HAVING COUNT(*) > 1 ORDER BY n DESC, region ASC LIMIT 5 "
      "OFFSET 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ((*stmt)->order_by.size(), 2u);
  EXPECT_TRUE((*stmt)->order_by[0].descending);
  EXPECT_FALSE((*stmt)->order_by[1].descending);
  EXPECT_EQ((*stmt)->limit.value(), 5);
  EXPECT_EQ((*stmt)->offset.value(), 2);
}

TEST(ParserTest, JoinChain) {
  auto stmt = Parse(
      "SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->from->kind, TableRefKind::kJoin);
  const auto& outer = static_cast<const JoinRef&>(*(*stmt)->from);
  EXPECT_EQ(outer.left->kind, TableRefKind::kJoin);
  EXPECT_EQ(outer.right->kind, TableRefKind::kBaseTable);
}

TEST(ParserTest, TvfWithTableAndSubqueryInput) {
  auto simple = Parse("SELECT d FROM parse_mnist_grid(MNIST_Grid)");
  ASSERT_TRUE(simple.ok());
  const auto& tvf =
      static_cast<const TableFunctionRef&>(*(*simple)->from);
  EXPECT_EQ(tvf.function_name, "parse_mnist_grid");
  EXPECT_EQ(tvf.input->kind, TableRefKind::kBaseTable);

  // The paper's OCR query shape (Listing 8, TDP dialect).
  auto nested = Parse(
      "SELECT AVG(SepalLength) FROM extract_table(SELECT images FROM "
      "Document WHERE timestamp = '2022:08:10')");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  const auto& tvf2 =
      static_cast<const TableFunctionRef&>(*(*nested)->from);
  EXPECT_EQ(tvf2.input->kind, TableRefKind::kSubquery);
}

TEST(ParserTest, CaseExpression) {
  auto stmt = Parse(
      "SELECT CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' "
      "END FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list[0].expr->kind, ExprKind::kCase);
}

TEST(ParserTest, CountDistinctAndStar) {
  auto stmt = Parse("SELECT COUNT(*), COUNT(DISTINCT x) FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto& star =
      static_cast<const FunctionCallExpr&>(*(*stmt)->select_list[0].expr);
  EXPECT_TRUE(star.is_star_arg);
  const auto& distinct =
      static_cast<const FunctionCallExpr&>(*(*stmt)->select_list[1].expr);
  EXPECT_TRUE(distinct.distinct);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t GROUP").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra garbage +").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t JOIN u").ok());  // missing ON
  EXPECT_FALSE(Parse("SELECT (a FROM t").ok());
}

TEST(ParserTest, CloneExprDeepCopies) {
  auto stmt = Parse("SELECT a + b * 2 FROM t");
  ASSERT_TRUE(stmt.ok());
  const Expr& original = *(*stmt)->select_list[0].expr;
  ExprPtr copy = CloneExpr(original);
  EXPECT_EQ(copy->ToString(), original.ToString());
  EXPECT_NE(copy.get(), &original);
}

TEST(LexerTest, QuestionMarkIsAParameterToken) {
  auto tokens = Tokenize("WHERE x = ?");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[3].type, TokenType::kParameter);
  EXPECT_EQ((*tokens)[3].text, "?");
}

TEST(ParserTest, ParametersNumberedLeftToRight) {
  auto stmt = Parse("SELECT ? + a FROM t WHERE a > ? AND b < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& select = static_cast<const BinaryExpr&>(
      *(*stmt)->select_list[0].expr);
  ASSERT_EQ(select.left->kind, ExprKind::kParameter);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*select.left).ordinal, 0);
  // WHERE is (a > ?#1) AND (b < ?#2).
  const auto& where = static_cast<const BinaryExpr&>(*(*stmt)->where);
  const auto& gt = static_cast<const BinaryExpr&>(*where.left);
  const auto& lt = static_cast<const BinaryExpr&>(*where.right);
  ASSERT_EQ(gt.right->kind, ExprKind::kParameter);
  ASSERT_EQ(lt.right->kind, ExprKind::kParameter);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*gt.right).ordinal, 1);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*lt.right).ordinal, 2);
  EXPECT_EQ((*stmt)->where->ToString(), "((a > ?) AND (b < ?))");
}

TEST(ParserTest, BetweenWithParameterReusesOrdinalInDesugaredClone) {
  // `x BETWEEN ? AND 5` desugars to (x >= ?) AND (x <= 5); the clone of
  // the left side must not mint a fresh ordinal.
  auto stmt = Parse("SELECT a FROM t WHERE ? BETWEEN a AND b");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& conj = static_cast<const BinaryExpr&>(*(*stmt)->where);
  const auto& ge = static_cast<const BinaryExpr&>(*conj.left);
  const auto& le = static_cast<const BinaryExpr&>(*conj.right);
  ASSERT_EQ(ge.left->kind, ExprKind::kParameter);
  ASSERT_EQ(le.left->kind, ExprKind::kParameter);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*ge.left).ordinal, 0);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*le.left).ordinal, 0);
}

// ---- Nesting limit ---------------------------------------------------------

// The parser's nesting limit: each parenthesis, unary operator, call,
// subquery and chained operator is one level.
constexpr int kMaxNesting = 256;

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// `n` terms, `term(i)` each, joined by `sep`.
template <typename F>
std::string Join(int n, const std::string& sep, F term) {
  std::string out;
  for (int i = 0; i < n; ++i) out += (i > 0 ? sep : "") + term(i);
  return out;
}

enum class Shape { kParens, kNeg, kNot, kIn, kOr, kAnd, kAdd, kSubquery };

/// A query over `t(k, b)` whose expression (or FROM clause) nests exactly
/// `depth` levels deep, in the given shape.
std::string NestedQuery(Shape shape, int depth) {
  const auto number = [](int i) { return std::to_string(i); };
  const auto equals = [](int i) { return "k = " + std::to_string(i); };
  const auto flag = [](int) { return std::string("b"); };
  switch (shape) {
    case Shape::kParens:  // the comparison is one level
      return "SELECT k FROM t WHERE " + Repeat("(", depth - 1) + "k > 0" +
             Repeat(")", depth - 1);
    case Shape::kNeg:
      return "SELECT " + Repeat("- ", depth) + "k FROM t";
    case Shape::kNot:
      return "SELECT k FROM t WHERE " + Repeat("NOT ", depth) + "b";
    case Shape::kIn:  // k = v0, then one OR link per further value
      return "SELECT k FROM t WHERE k IN (" + Join(depth, ", ", number) +
             ")";
    case Shape::kOr:
      return "SELECT k FROM t WHERE " + Join(depth, " OR ", equals);
    case Shape::kAnd:
      return "SELECT k FROM t WHERE " + Join(depth + 1, " AND ", flag);
    case Shape::kAdd:
      return "SELECT k" + Repeat(" + 1", depth) + " FROM t";
    case Shape::kSubquery:
      return "SELECT k FROM " + Repeat("(SELECT k FROM ", depth) + "t" +
             Repeat(")", depth);
  }
  return "";
}

const Shape kShapes[] = {Shape::kParens, Shape::kNeg, Shape::kNot,
                         Shape::kIn,     Shape::kOr,  Shape::kAnd,
                         Shape::kAdd,    Shape::kSubquery};

TEST(ParserTest, NestingAtTheLimitParses) {
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(static_cast<int>(shape));
    auto stmt = ParseStatement(NestedQuery(shape, kMaxNesting));
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  }
}

TEST(ParserTest, NestingPastTheLimitIsAParseErrorNamingIt) {
  for (const int depth : {kMaxNesting + 1, 100000}) {
    for (const Shape shape : kShapes) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                   " depth " + std::to_string(depth));
      auto stmt = ParseStatement(NestedQuery(shape, depth));
      ASSERT_FALSE(stmt.ok());
      EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
      EXPECT_NE(stmt.status().message().find("limit of 256"),
                std::string::npos)
          << stmt.status().ToString();
    }
  }
}

// A query at the limit binds, plans and runs: every pass after the parser
// recurses once per level, and this suite runs in the sanitizer builds,
// whose frames are the largest.
TEST(NestingLimitTest, QueryAtTheLimitRuns) {
  Session session;
  auto table = TableBuilder("t")
                   .AddInt64("k", {1, 2, 3})
                   .AddBool("b", {true, false, true})
                   .Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("t", table.value()).ok());
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(static_cast<int>(shape));
    auto result = session.Sql(NestedQuery(shape, kMaxNesting));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT((*result)->num_rows(), 0);
  }
}

}  // namespace
}  // namespace sql
}  // namespace tdp
