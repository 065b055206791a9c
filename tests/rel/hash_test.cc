/**
 * @file
 * Structural node hashes (Expr::hash, Formula::hash): equal terms built
 * separately hash equal, and any change of kind, operand, variable or
 * constant bit changes the hash. The cache keys built on them are
 * tested in tests/synth/service_test.cc.
 */

#include <gtest/gtest.h>

#include "rel/formula.hh"

namespace lts::rel
{
namespace
{

ExprPtr
relConst(size_t n, size_t i, size_t j)
{
    BitMatrix m(n);
    m.set(i, j);
    return mkConst(std::move(m));
}

ExprPtr
setConst(size_t n, size_t i)
{
    Bitset s(n);
    s.set(i);
    return mkConst(std::move(s));
}

TEST(NodeHashTest, SeparatelyBuiltEqualTermsHashEqual)
{
    auto build = [] {
        ExprPtr po = mkVar(0, "po", 2);
        ExprPtr r = mkVar(1, "R", 1);
        return mkAcyclic(mkClosure(mkDomRestrict(r, po) + relConst(3, 0, 1)));
    };
    FormulaPtr a = build();
    FormulaPtr b = build();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->hash, b->hash);
    EXPECT_EQ(a->exprLhs->hash, b->exprLhs->hash);
}

TEST(NodeHashTest, ConstantContentsChangeTheHash)
{
    EXPECT_NE(relConst(3, 0, 1)->hash, relConst(3, 1, 0)->hash);
    EXPECT_NE(relConst(3, 0, 1)->hash, relConst(4, 0, 1)->hash);
    EXPECT_NE(setConst(3, 0)->hash, setConst(3, 1)->hash);
    EXPECT_NE(setConst(3, 0)->hash, setConst(4, 0)->hash);
    EXPECT_EQ(setConst(3, 2)->hash, setConst(3, 2)->hash);

    // ... and the change reaches the root of any formula over them.
    ExprPtr rf = mkVar(0, "rf", 2);
    EXPECT_NE(mkSome(rf & relConst(3, 0, 1))->hash,
              mkSome(rf & relConst(3, 1, 0))->hash);
}

TEST(NodeHashTest, KindOperandAndVariableChangeTheHash)
{
    ExprPtr a = mkVar(0, "a", 2);
    ExprPtr b = mkVar(1, "b", 2);
    EXPECT_NE((a + b)->hash, (a & b)->hash);
    EXPECT_NE((a - b)->hash, (b - a)->hash);
    EXPECT_NE(mkClosure(a)->hash, mkRClosure(a)->hash);
    EXPECT_NE(mkVar(0, "a", 2)->hash, mkVar(0, "b", 2)->hash);
    EXPECT_NE(mkVar(0, "a", 2)->hash, mkVar(1, "a", 2)->hash);
    EXPECT_NE(mkVar(0, "a", 1)->hash, mkVar(0, "a", 2)->hash);
    EXPECT_NE(mkNone(1)->hash, mkNone(2)->hash);
    EXPECT_NE(mkSubset(a, b)->hash, mkEqual(a, b)->hash);
    EXPECT_NE(mkSome(a)->hash, mkNo(a)->hash);
    EXPECT_NE(mkAnd(mkSome(a), mkNo(b))->hash,
              mkOr(mkSome(a), mkNo(b))->hash);
    EXPECT_NE(mkImplies(mkSome(a), mkNo(b))->hash,
              mkImplies(mkNo(b), mkSome(a))->hash);
    EXPECT_NE(mkTrue()->hash, mkFalse()->hash);
}

} // namespace
} // namespace lts::rel
