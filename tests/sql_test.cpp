#include <gtest/gtest.h>

#include "plan/plan_cache.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace rcc {
namespace {

// -- lexer -----------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE a >= 1.5 AND b = 'x''y'");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdent);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[2].type, TokenType::kSymbol);
  EXPECT_EQ(t[2].text, ",");
  // find the double and the escaped string
  bool saw_double = false;
  bool saw_string = false;
  for (const Token& tok : t) {
    if (tok.type == TokenType::kDouble) {
      EXPECT_DOUBLE_EQ(tok.double_value, 1.5);
      saw_double = true;
    }
    if (tok.type == TokenType::kString) {
      EXPECT_EQ(tok.text, "x'y");
      saw_string = true;
    }
  }
  EXPECT_TRUE(saw_double);
  EXPECT_TRUE(saw_string);
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("SELECT -- a comment\n1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, TokenType::kInt);
  EXPECT_EQ((*tokens)[1].int_value, 1);
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("<= >= <> !=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "<=");
  EXPECT_EQ((*tokens)[1].text, ">=");
  EXPECT_EQ((*tokens)[2].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "!=");
}

TEST(LexerTest, HighBitBytesInStringLiteralsSurviveVerbatim) {
  // UTF-8 "Café" followed by a lone Latin-1 É (0xC9). Keyword folding is
  // ASCII-only, so bytes >= 0x80 inside literals must pass through the lexer
  // untouched regardless of the process locale.
  const std::string literal = "Caf\xC3\xA9 \xC9 \xFF";
  auto tokens = Tokenize("SELECT title FROM Books WHERE title = '" + literal +
                         "' AND price > 1");
  ASSERT_TRUE(tokens.ok());
  bool saw = false;
  for (const Token& tok : *tokens) {
    if (tok.type == TokenType::kString) {
      EXPECT_EQ(tok.text, literal);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);

  // The surrounding keywords still fold case-insensitively and the whole
  // statement parses: high-bit bytes never desugar into keyword matches.
  auto stmt = ParseSelect("select TITLE from Books where title = '" + literal +
                          "'");
  ASSERT_TRUE(stmt.ok());
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("'unterminated").status().IsParseError());
  EXPECT_TRUE(Tokenize("a # b").status().IsParseError());
}

TEST(LexerTest, ScientificNotation) {
  auto tokens = Tokenize("1.5e3 2E-2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].double_value, 1500.0);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 0.02);
}

// -- parser: structure ------------------------------------------------------------

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseSelect("SELECT a, b AS bee FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE((*stmt)->select_star);
  ASSERT_EQ((*stmt)->items.size(), 2u);
  EXPECT_EQ((*stmt)->items[1].alias, "bee");
  ASSERT_EQ((*stmt)->from.size(), 1u);
  EXPECT_EQ((*stmt)->from[0].table, "t");
  EXPECT_EQ((*stmt)->from[0].alias, "t");
}

TEST(ParserTest, SelectStarAndAliases) {
  auto stmt = ParseSelect("SELECT * FROM Books B, Reviews AS R");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->select_star);
  ASSERT_EQ((*stmt)->from.size(), 2u);
  EXPECT_EQ((*stmt)->from[0].alias, "B");
  EXPECT_EQ((*stmt)->from[1].alias, "R");
}

TEST(ParserTest, WherePrecedence) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  const Expr* w = (*stmt)->where.get();
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->op, BinaryOp::kOr);  // AND binds tighter
  EXPECT_EQ(w->right->op, BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = ParseSelect("SELECT a + b * 2 FROM t");
  ASSERT_TRUE(stmt.ok());
  const Expr* e = (*stmt)->items[0].expr.get();
  EXPECT_EQ(e->op, BinaryOp::kAdd);
  EXPECT_EQ(e->right->op, BinaryOp::kMul);
}

TEST(ParserTest, BetweenDesugarsToRange) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a BETWEEN 1 AND 5");
  ASSERT_TRUE(stmt.ok());
  const Expr* w = (*stmt)->where.get();
  EXPECT_EQ(w->op, BinaryOp::kAnd);
  EXPECT_EQ(w->left->op, BinaryOp::kGe);
  EXPECT_EQ(w->right->op, BinaryOp::kLe);
}

TEST(ParserTest, JoinOnDesugarsToWhere) {
  auto stmt = ParseSelect(
      "SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->from.size(), 2u);
  // WHERE = (a.y > 1) AND (a.x = b.x)
  const Expr* w = (*stmt)->where.get();
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->op, BinaryOp::kAnd);
}

TEST(ParserTest, DerivedTable) {
  auto stmt = ParseSelect(
      "SELECT T.x FROM (SELECT a AS x FROM t) AS T WHERE T.x > 0");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->from[0].is_subquery());
  EXPECT_EQ((*stmt)->from[0].alias, "T");
}

TEST(ParserTest, ExistsAndInSubqueries) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a) "
      "AND a IN (SELECT y FROM u)");
  ASSERT_TRUE(stmt.ok());
  const Expr* w = (*stmt)->where.get();
  EXPECT_EQ(w->op, BinaryOp::kAnd);
  EXPECT_EQ(w->left->kind, ExprKind::kExists);
  EXPECT_EQ(w->right->kind, ExprKind::kInSubquery);
}

TEST(ParserTest, GroupOrderBy) {
  auto stmt = ParseSelect(
      "SELECT c, count(*) AS n FROM t GROUP BY c ORDER BY c DESC, n");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_EQ((*stmt)->order_by.size(), 2u);
  EXPECT_TRUE((*stmt)->order_by[0].descending);
  EXPECT_FALSE((*stmt)->order_by[1].descending);
}

TEST(ParserTest, AggregatesAndCountStar) {
  auto stmt = ParseSelect("SELECT count(*), sum(a), avg(b) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->items[0].expr->star);
  EXPECT_EQ((*stmt)->items[1].expr->func, "sum");
}

TEST(ParserTest, Having) {
  auto stmt = ParseSelect(
      "SELECT c, count(*) FROM t GROUP BY c HAVING count(*) > 2");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ((*stmt)->having->op, BinaryOp::kGt);
}

TEST(ParserTest, SelectDistinct) {
  auto stmt = ParseSelect("SELECT DISTINCT a, b FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->distinct);
  EXPECT_EQ((*stmt)->items.size(), 2u);
  auto plain = ParseSelect("SELECT a FROM t");
  EXPECT_FALSE((*plain)->distinct);
}

TEST(ParserTest, UnaryMinusAndNull) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a > -5 AND b = NULL");
  ASSERT_TRUE(stmt.ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra junk!").ok());
  EXPECT_FALSE(ParseSelect("").ok());
}

// -- parser: currency clause ------------------------------------------------------

TEST(CurrencyClauseTest, PaperExampleE1) {
  // Fig 2.1 E1: bound 10 min on both tables, one consistency class.
  auto stmt = ParseSelect(
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B, R)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->currency.size(), 1u);
  const CurrencySpec& spec = (*stmt)->currency[0];
  EXPECT_EQ(spec.bound_ms, 10 * 60000);
  EXPECT_EQ(spec.targets, (std::vector<std::string>{"B", "R"}));
  EXPECT_TRUE(spec.by_columns.empty());
}

TEST(CurrencyClauseTest, PaperExampleE2TwoClasses) {
  // E2: 10 min on B, 30 min on R, separate classes.
  auto stmt = ParseSelect(
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B), 30 MIN ON (R)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->currency.size(), 2u);
  EXPECT_EQ((*stmt)->currency[1].bound_ms, 30 * 60000);
  EXPECT_EQ((*stmt)->currency[1].targets,
            (std::vector<std::string>{"R"}));
}

TEST(CurrencyClauseTest, PaperExampleE4GroupingColumns) {
  // E4: per-isbn consistency groups.
  auto stmt = ParseSelect(
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B, R) BY B.isbn");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->currency.size(), 1u);
  EXPECT_EQ((*stmt)->currency[0].by_columns,
            (std::vector<std::string>{"B.isbn"}));
}

TEST(CurrencyClauseTest, SingleTargetWithoutParens) {
  auto stmt =
      ParseSelect("SELECT a FROM t CURRENCY BOUND 5 SECONDS ON t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->currency[0].bound_ms, 5000);
}

TEST(CurrencyClauseTest, BoundKeywordOptional) {
  auto stmt = ParseSelect("SELECT a FROM t CURRENCY 90 SECONDS ON (t)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->currency[0].bound_ms, 90000);
}

TEST(CurrencyClauseTest, SubqueryCurrencyClause) {
  // Paper Q3: inner block's clause references the outer table B.
  auto stmt = ParseSelect(
      "SELECT * FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND EXISTS ("
      "  SELECT 1 FROM Sales S WHERE S.isbn = B.isbn "
      "  CURRENCY BOUND 10 MIN ON (S, B)) "
      "CURRENCY BOUND 10 MIN ON (B, R)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->currency.size(), 1u);
  // The inner clause stays attached to the subquery.
  const Expr* w = (*stmt)->where.get();
  const Expr* exists = w->right.get();
  ASSERT_EQ(exists->kind, ExprKind::kExists);
  ASSERT_EQ(exists->subquery->currency.size(), 1u);
  EXPECT_EQ(exists->subquery->currency[0].targets,
            (std::vector<std::string>{"S", "B"}));
}

TEST(CurrencyClauseTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t CURRENCY BOUND ON (t)").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t CURRENCY 10 fortnights ON t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t CURRENCY 10 MIN").ok());
}

// Unit conversion sweep.
struct UnitCase {
  const char* unit;
  int64_t expect_ms;
};

class TimeUnitTest : public ::testing::TestWithParam<UnitCase> {};

TEST_P(TimeUnitTest, ConvertsToMs) {
  const UnitCase& c = GetParam();
  auto stmt = ParseSelect(std::string("SELECT a FROM t CURRENCY BOUND 2 ") +
                          c.unit + " ON (t)");
  ASSERT_TRUE(stmt.ok()) << c.unit;
  EXPECT_EQ((*stmt)->currency[0].bound_ms, c.expect_ms);
}

INSTANTIATE_TEST_SUITE_P(
    Units, TimeUnitTest,
    ::testing::Values(UnitCase{"MS", 2}, UnitCase{"SEC", 2000},
                      UnitCase{"SECONDS", 2000}, UnitCase{"second", 2000},
                      UnitCase{"MIN", 120000}, UnitCase{"minutes", 120000},
                      UnitCase{"HOUR", 7200000}, UnitCase{"hr", 7200000}));

// -- statements ----------------------------------------------------------------------

TEST(StatementTest, TimeOrderedMarkers) {
  auto b = ParseStatement("BEGIN TIMEORDERED");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->kind, StatementKind::kBeginTimeOrdered);
  auto e = ParseStatement("end timeordered");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->kind, StatementKind::kEndTimeOrdered);
  EXPECT_FALSE(ParseStatement("BEGIN").ok());
}

// -- round trips --------------------------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ToStringReparses) {
  auto stmt = ParseSelect(GetParam());
  ASSERT_TRUE(stmt.ok()) << GetParam();
  std::string rendered = (*stmt)->ToString();
  auto again = ParseSelect(rendered);
  ASSERT_TRUE(again.ok()) << rendered;
  EXPECT_EQ((*again)->ToString(), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "SELECT a FROM t",
        "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn",
        "SELECT a, count(*) AS n FROM t WHERE a > 3 GROUP BY a ORDER BY a",
        "SELECT a FROM t WHERE a BETWEEN 1 AND 2 CURRENCY BOUND 10 MIN ON "
        "(t)",
        "SELECT T.x FROM (SELECT a AS x FROM t) T",
        "SELECT DISTINCT a FROM t WHERE a > 1",
        "SELECT c, count(*) FROM t GROUP BY c HAVING count(*) > 2",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a)",
        "SELECT a FROM t CURRENCY BOUND 10 MIN ON (t) BY t.a"));

void CollectLiterals(const Expr* e, std::vector<Value>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kLiteral) out->push_back(e->literal);
  CollectLiterals(e->left.get(), out);
  CollectLiterals(e->right.get(), out);
}

TEST(RoundTripLiteralTest, RenderedLiteralsKeepTypeAndValue) {
  // The fleet router keys pre-parsed statements by their rendering, so a
  // rendered literal must parse back to exactly the value it came from.
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE a = 2.0 AND b = 0.1234567890123 AND "
      "c = 'it''s' AND d = 1e300 AND e = 7 AND f = 2.5");
  ASSERT_TRUE(stmt.ok());
  std::string rendered = (*stmt)->ToString();
  auto again = ParseSelect(rendered);
  ASSERT_TRUE(again.ok()) << rendered;
  std::vector<Value> before;
  std::vector<Value> after;
  CollectLiterals((*stmt)->where.get(), &before);
  CollectLiterals((*again)->where.get(), &after);
  ASSERT_EQ(before.size(), 6u);
  ASSERT_EQ(after.size(), before.size()) << rendered;
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].type(), before[i].type()) << rendered;
    EXPECT_EQ(after[i].Compare(before[i]), 0) << rendered;
  }
}

TEST(CloneTest, DeepCopyIsIndependent) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a) "
      "CURRENCY BOUND 1 MIN ON (t)");
  ASSERT_TRUE(stmt.ok());
  auto clone = CloneSelectStmt(**stmt);
  EXPECT_EQ(clone->ToString(), (*stmt)->ToString());
  // Mutating the clone leaves the original untouched.
  clone->currency[0].bound_ms = 999;
  EXPECT_NE(clone->ToString(), (*stmt)->ToString());
}

// -- plan-cache SQL normalization ------------------------------------------------
// The cache key must never alias queries whose literals differ in *type*:
// a plan compiled for an int comparison is wrong for a string comparison
// even when the spellings collide after naive literal stripping.

TEST(NormalizeSqlTest, LiteralTypesProduceDistinctTemplates) {
  NormalizedSql i = NormalizeSql("SELECT 1");
  NormalizedSql f = NormalizeSql("SELECT 1.0");
  NormalizedSql s = NormalizeSql("SELECT '1'");
  ASSERT_TRUE(i.ok);
  ASSERT_TRUE(f.ok);
  ASSERT_TRUE(s.ok);
  // Typed slots: ?<n>i / ?<n>f / ?<n>s.
  EXPECT_NE(i.text, f.text);
  EXPECT_NE(i.text, s.text);
  EXPECT_NE(f.text, s.text);
  ASSERT_EQ(i.slots.size(), 1u);
  ASSERT_EQ(f.slots.size(), 1u);
  ASSERT_EQ(s.slots.size(), 1u);
  EXPECT_EQ(i.slots[0].value, Value::Int(1));
  EXPECT_EQ(f.slots[0].value, Value::Double(1.0));
  EXPECT_EQ(s.slots[0].value, Value::Str("1"));
}

TEST(NormalizeSqlTest, NullIsNeverParameterized) {
  // NULL is a keyword, not a literal: it must stay textual so
  // `WHERE a IS NULL` and `WHERE a = 'NULL'` can never share a template.
  NormalizedSql kw = NormalizeSql("SELECT a FROM t WHERE a IS NULL");
  NormalizedSql str = NormalizeSql("SELECT a FROM t WHERE a IS 'NULL'");
  ASSERT_TRUE(kw.ok);
  ASSERT_TRUE(str.ok);
  EXPECT_NE(kw.text, str.text);
  EXPECT_EQ(kw.slots.size(), 0u);
  EXPECT_NE(kw.text.find("null"), std::string::npos);
  EXPECT_EQ(str.slots.size(), 1u);
}

TEST(NormalizeSqlTest, SameTemplateDiffersOnlyInSlotValues) {
  NormalizedSql a = NormalizeSql("SELECT x FROM t WHERE x = 5 AND y = 'a'");
  NormalizedSql b = NormalizeSql("select x from t where x=99 and y='zz'");
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // Identifiers lowercased, whitespace canonicalized, literals slotted:
  // the two spellings share one template...
  EXPECT_EQ(a.text, b.text);
  // ...and differ only in slot values (same offsets-ordered slot list).
  ASSERT_EQ(a.slots.size(), 2u);
  ASSERT_EQ(b.slots.size(), 2u);
  EXPECT_EQ(a.slots[0].value, Value::Int(5));
  EXPECT_EQ(b.slots[0].value, Value::Int(99));
  EXPECT_EQ(a.slots[1].value, Value::Str("a"));
  EXPECT_EQ(b.slots[1].value, Value::Str("zz"));
  // Slot offsets point at the literal tokens in the *original* text.
  EXPECT_EQ(a.slots[0].offset, std::string("SELECT x FROM t WHERE x = ").size());
}

TEST(NormalizeSqlTest, CurrencyClauseLiteralsStayVerbatim) {
  // Bound literals select the C&C constraint and hence the plan: different
  // bounds must be different cache keys.
  NormalizedSql b10 = NormalizeSql(
      "SELECT isbn FROM Books B WHERE B.isbn = 1 CURRENCY BOUND 10 MIN ON (B)");
  NormalizedSql b5 = NormalizeSql(
      "SELECT isbn FROM Books B WHERE B.isbn = 1 CURRENCY BOUND 5 MIN ON (B)");
  ASSERT_TRUE(b10.ok);
  ASSERT_TRUE(b5.ok);
  EXPECT_NE(b10.text, b5.text);
  // The WHERE literal before the clause is still slotted; the bound is not.
  ASSERT_EQ(b10.slots.size(), 1u);
  EXPECT_EQ(b10.slots[0].value, Value::Int(1));
  EXPECT_NE(b10.text.find("10"), std::string::npos);
}

}  // namespace
}  // namespace rcc
