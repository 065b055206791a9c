#include "rel/expr.hh"

#include <cassert>
#include <stdexcept>

#include "common/hash.hh"

namespace lts::rel
{

namespace
{

/**
 * A fresh node and its structural hash. Var and Const fold their
 * payload into the hash after this; the 'E' tag keeps expression
 * hashes apart from formula hashes.
 */
std::shared_ptr<Expr>
mkNode(ExprKind kind, int arity, ExprPtr lhs = nullptr, ExprPtr rhs = nullptr)
{
    auto node = std::make_shared<Expr>();
    node->kind = kind;
    node->arity = arity;
    uint64_t h = hashCombine(hashInit(), static_cast<uint64_t>('E'));
    h = hashCombine(hashCombine(h, static_cast<uint64_t>(kind)),
                    static_cast<uint64_t>(arity));
    if (lhs)
        h = hashCombine(h, lhs->hash);
    if (rhs)
        h = hashCombine(h, rhs->hash);
    node->hash = h;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
}

void
requireArity(const ExprPtr &e, int arity, const char *op)
{
    if (e->arity != arity) {
        throw std::invalid_argument(std::string(op) + ": expected arity " +
                                    std::to_string(arity) + ", got " +
                                    std::to_string(e->arity) + " in " +
                                    e->toString());
    }
}

void
requireSameArity(const ExprPtr &a, const ExprPtr &b, const char *op)
{
    if (a->arity != b->arity) {
        throw std::invalid_argument(std::string(op) + ": arity mismatch: " +
                                    a->toString() + " vs " + b->toString());
    }
}

} // namespace

ExprPtr
mkVar(int var_id, const std::string &name, int arity)
{
    assert(arity == 1 || arity == 2);
    auto node = mkNode(ExprKind::Var, arity);
    node->varId = var_id;
    node->name = name;
    node->hash = hashCombine(
        hashCombine(node->hash, static_cast<uint64_t>(var_id)), name);
    return node;
}

ExprPtr
mkUniv()
{
    return mkNode(ExprKind::Univ, 1);
}

ExprPtr
mkNone(int arity)
{
    assert(arity == 1 || arity == 2);
    return mkNode(ExprKind::None, arity);
}

ExprPtr
mkIden()
{
    return mkNode(ExprKind::Iden, 2);
}

ExprPtr
mkConst(Bitset contents)
{
    auto node = mkNode(ExprKind::Const, 1);
    node->hash = hashCombine(node->hash, contents.hash());
    node->constSet = std::move(contents);
    return node;
}

ExprPtr
mkConst(BitMatrix contents)
{
    auto node = mkNode(ExprKind::Const, 2);
    node->hash = hashCombine(node->hash, contents.hash());
    node->constMatrix = std::move(contents);
    return node;
}

ExprPtr
mkUnion(ExprPtr a, ExprPtr b)
{
    requireSameArity(a, b, "+");
    int arity = a->arity;
    return mkNode(ExprKind::Union, arity, std::move(a), std::move(b));
}

ExprPtr
mkIntersect(ExprPtr a, ExprPtr b)
{
    requireSameArity(a, b, "&");
    int arity = a->arity;
    return mkNode(ExprKind::Intersect, arity, std::move(a), std::move(b));
}

ExprPtr
mkDiff(ExprPtr a, ExprPtr b)
{
    requireSameArity(a, b, "-");
    int arity = a->arity;
    return mkNode(ExprKind::Diff, arity, std::move(a), std::move(b));
}

ExprPtr
mkJoin(ExprPtr a, ExprPtr b)
{
    // set.rel -> set; rel.set -> set; rel.rel -> rel.
    int arity;
    if (a->arity == 1 && b->arity == 2)
        arity = 1;
    else if (a->arity == 2 && b->arity == 1)
        arity = 1;
    else if (a->arity == 2 && b->arity == 2)
        arity = 2;
    else
        throw std::invalid_argument("join: set.set is not a relation");
    return mkNode(ExprKind::Join, arity, std::move(a), std::move(b));
}

ExprPtr
mkProduct(ExprPtr a, ExprPtr b)
{
    requireArity(a, 1, "->");
    requireArity(b, 1, "->");
    return mkNode(ExprKind::Product, 2, std::move(a), std::move(b));
}

ExprPtr
mkTranspose(ExprPtr a)
{
    requireArity(a, 2, "~");
    return mkNode(ExprKind::Transpose, 2, std::move(a));
}

ExprPtr
mkClosure(ExprPtr a)
{
    requireArity(a, 2, "^");
    return mkNode(ExprKind::Closure, 2, std::move(a));
}

ExprPtr
mkRClosure(ExprPtr a)
{
    requireArity(a, 2, "*");
    return mkNode(ExprKind::RClosure, 2, std::move(a));
}

ExprPtr
mkDomRestrict(ExprPtr set, ExprPtr r)
{
    requireArity(set, 1, "<:");
    requireArity(r, 2, "<:");
    return mkNode(ExprKind::DomRestrict, 2, std::move(set), std::move(r));
}

ExprPtr
mkRanRestrict(ExprPtr r, ExprPtr set)
{
    requireArity(r, 2, ":>");
    requireArity(set, 1, ":>");
    return mkNode(ExprKind::RanRestrict, 2, std::move(r), std::move(set));
}

std::string
Expr::toString() const
{
    switch (kind) {
      case ExprKind::Var:
        return name;
      case ExprKind::Univ:
        return "univ";
      case ExprKind::None:
        return "none";
      case ExprKind::Iden:
        return "iden";
      case ExprKind::Const:
        return arity == 1 ? "<const-set>" : "<const-rel>";
      case ExprKind::Union:
        return "(" + lhs->toString() + " + " + rhs->toString() + ")";
      case ExprKind::Intersect:
        return "(" + lhs->toString() + " & " + rhs->toString() + ")";
      case ExprKind::Diff:
        return "(" + lhs->toString() + " - " + rhs->toString() + ")";
      case ExprKind::Join:
        return "(" + lhs->toString() + " . " + rhs->toString() + ")";
      case ExprKind::Product:
        return "(" + lhs->toString() + " -> " + rhs->toString() + ")";
      case ExprKind::Transpose:
        return "~" + lhs->toString();
      case ExprKind::Closure:
        return "^" + lhs->toString();
      case ExprKind::RClosure:
        return "*" + lhs->toString();
      case ExprKind::DomRestrict:
        return "(" + lhs->toString() + " <: " + rhs->toString() + ")";
      case ExprKind::RanRestrict:
        return "(" + lhs->toString() + " :> " + rhs->toString() + ")";
    }
    return "<?>";
}

} // namespace lts::rel
