#include "rel/formula.hh"

#include <stdexcept>
#include <vector>

#include "common/hash.hh"

namespace lts::rel
{

namespace
{

/** Structural hash; the 'F' tag keeps it apart from expression hashes. */
uint64_t
formulaHash(FormulaKind kind, uint64_t lhs, uint64_t rhs)
{
    uint64_t h = hashCombine(hashInit(), static_cast<uint64_t>('F'));
    h = hashCombine(h, static_cast<uint64_t>(kind));
    return hashCombine(hashCombine(h, lhs), rhs);
}

FormulaPtr
mkExprNode(FormulaKind kind, ExprPtr a, ExprPtr b = nullptr)
{
    auto node = std::make_shared<Formula>();
    node->kind = kind;
    node->hash = formulaHash(kind, a->hash, b ? b->hash : 0);
    node->exprLhs = std::move(a);
    node->exprRhs = std::move(b);
    return node;
}

FormulaPtr
mkConnective(FormulaKind kind, FormulaPtr a, FormulaPtr b = nullptr)
{
    auto node = std::make_shared<Formula>();
    node->kind = kind;
    node->hash = formulaHash(kind, a ? a->hash : 0, b ? b->hash : 0);
    node->lhs = std::move(a);
    node->rhs = std::move(b);
    return node;
}

void
requireBinary(const ExprPtr &e, const char *op)
{
    if (e->arity != 2)
        throw std::invalid_argument(std::string(op) +
                                    " needs a binary relation: " +
                                    e->toString());
}

} // namespace

FormulaPtr
mkTrue()
{
    static FormulaPtr t = mkConnective(FormulaKind::True, nullptr);
    return t;
}

FormulaPtr
mkFalse()
{
    static FormulaPtr f = mkConnective(FormulaKind::False, nullptr);
    return f;
}

FormulaPtr
mkSubset(ExprPtr a, ExprPtr b)
{
    if (a->arity != b->arity)
        throw std::invalid_argument("in: arity mismatch");
    return mkExprNode(FormulaKind::Subset, std::move(a), std::move(b));
}

FormulaPtr
mkEqual(ExprPtr a, ExprPtr b)
{
    if (a->arity != b->arity)
        throw std::invalid_argument("=: arity mismatch");
    return mkExprNode(FormulaKind::Equal, std::move(a), std::move(b));
}

FormulaPtr
mkSome(ExprPtr e)
{
    return mkExprNode(FormulaKind::Some, std::move(e));
}

FormulaPtr
mkNo(ExprPtr e)
{
    return mkExprNode(FormulaKind::No, std::move(e));
}

FormulaPtr
mkLone(ExprPtr e)
{
    return mkExprNode(FormulaKind::Lone, std::move(e));
}

FormulaPtr
mkOne(ExprPtr e)
{
    return mkExprNode(FormulaKind::One, std::move(e));
}

FormulaPtr
mkAcyclic(ExprPtr r)
{
    requireBinary(r, "acyclic");
    return mkExprNode(FormulaKind::Acyclic, std::move(r));
}

FormulaPtr
mkIrreflexive(ExprPtr r)
{
    requireBinary(r, "irreflexive");
    return mkExprNode(FormulaKind::Irreflexive, std::move(r));
}

FormulaPtr
mkTotal(ExprPtr r, ExprPtr s)
{
    requireBinary(r, "total");
    if (s->arity != 1)
        throw std::invalid_argument("total needs a set as second operand");
    return mkExprNode(FormulaKind::Total, std::move(r), std::move(s));
}

FormulaPtr
mkAnd(FormulaPtr a, FormulaPtr b)
{
    if (a->kind == FormulaKind::True)
        return b;
    if (b->kind == FormulaKind::True)
        return a;
    if (a->kind == FormulaKind::False || b->kind == FormulaKind::False)
        return mkFalse();
    return mkConnective(FormulaKind::And, std::move(a), std::move(b));
}

FormulaPtr
mkOr(FormulaPtr a, FormulaPtr b)
{
    if (a->kind == FormulaKind::False)
        return b;
    if (b->kind == FormulaKind::False)
        return a;
    if (a->kind == FormulaKind::True || b->kind == FormulaKind::True)
        return mkTrue();
    return mkConnective(FormulaKind::Or, std::move(a), std::move(b));
}

FormulaPtr
mkNot(FormulaPtr a)
{
    if (a->kind == FormulaKind::True)
        return mkFalse();
    if (a->kind == FormulaKind::False)
        return mkTrue();
    if (a->kind == FormulaKind::Not)
        return a->lhs;
    return mkConnective(FormulaKind::Not, std::move(a));
}

FormulaPtr
mkImplies(FormulaPtr a, FormulaPtr b)
{
    if (a->kind == FormulaKind::True)
        return b;
    if (a->kind == FormulaKind::False)
        return mkTrue();
    return mkConnective(FormulaKind::Implies, std::move(a), std::move(b));
}

FormulaPtr
mkIff(FormulaPtr a, FormulaPtr b)
{
    return mkConnective(FormulaKind::Iff, std::move(a), std::move(b));
}

FormulaPtr
mkAndAll(const std::vector<FormulaPtr> &formulas)
{
    FormulaPtr out = mkTrue();
    for (const auto &f : formulas)
        out = mkAnd(out, f);
    return out;
}

FormulaPtr
mkOrAll(const std::vector<FormulaPtr> &formulas)
{
    FormulaPtr out = mkFalse();
    for (const auto &f : formulas)
        out = mkOr(out, f);
    return out;
}

std::string
Formula::toString() const
{
    switch (kind) {
      case FormulaKind::True:
        return "true";
      case FormulaKind::False:
        return "false";
      case FormulaKind::Subset:
        return "(" + exprLhs->toString() + " in " + exprRhs->toString() + ")";
      case FormulaKind::Equal:
        return "(" + exprLhs->toString() + " = " + exprRhs->toString() + ")";
      case FormulaKind::Some:
        return "some " + exprLhs->toString();
      case FormulaKind::No:
        return "no " + exprLhs->toString();
      case FormulaKind::Lone:
        return "lone " + exprLhs->toString();
      case FormulaKind::One:
        return "one " + exprLhs->toString();
      case FormulaKind::Acyclic:
        return "acyclic[" + exprLhs->toString() + "]";
      case FormulaKind::Irreflexive:
        return "irreflexive[" + exprLhs->toString() + "]";
      case FormulaKind::Total:
        return "total[" + exprLhs->toString() + ", " + exprRhs->toString() +
               "]";
      case FormulaKind::And:
        return "(" + lhs->toString() + " && " + rhs->toString() + ")";
      case FormulaKind::Or:
        return "(" + lhs->toString() + " || " + rhs->toString() + ")";
      case FormulaKind::Not:
        return "!" + lhs->toString();
      case FormulaKind::Implies:
        return "(" + lhs->toString() + " => " + rhs->toString() + ")";
      case FormulaKind::Iff:
        return "(" + lhs->toString() + " <=> " + rhs->toString() + ")";
    }
    return "<?>";
}

} // namespace lts::rel
