/**
 * @file
 * First-order formula AST over relational expressions.
 *
 * Formulas are the constraint half of the bounded relational logic: they
 * assert multiplicities and containments over expressions and combine with
 * the usual connectives. The derived predicates the paper's Alloy models
 * lean on (acyclic, irreflexive, totality) are primitives here so both
 * evaluators can implement them directly.
 */

#ifndef LTS_REL_FORMULA_HH
#define LTS_REL_FORMULA_HH

#include <cstdint>
#include <memory>
#include <string>

#include "rel/expr.hh"

namespace lts::rel
{

/** Formula node kinds. */
enum class FormulaKind
{
    True,
    False,
    Subset,       ///< a in b
    Equal,        ///< a = b
    Some,         ///< expr is non-empty
    No,           ///< expr is empty
    Lone,         ///< expr has at most one tuple
    One,          ///< expr has exactly one tuple
    Acyclic,      ///< no iden & ^expr
    Irreflexive,  ///< no iden & expr
    Total,        ///< expr totally orders a set (with strict order semantics)
    And,
    Or,
    Not,
    Implies,
    Iff,
};

class Formula;

/** Shared handle to an immutable formula node. */
using FormulaPtr = std::shared_ptr<const Formula>;

/** An immutable formula node; build with the factories below. */
class Formula
{
  public:
    FormulaKind kind;
    ExprPtr exprLhs;   ///< operand expressions (when applicable)
    ExprPtr exprRhs;
    FormulaPtr lhs;    ///< operand formulas (when applicable)
    FormulaPtr rhs;

    /** Structural hash over kind and operand hashes (see Expr::hash). */
    uint64_t hash = 0;

    /** Render in Alloy-ish surface syntax for diagnostics. */
    std::string toString() const;
};

// --- atomic formulas --------------------------------------------------------

FormulaPtr mkTrue();
FormulaPtr mkFalse();

/** a in b (subset). */
FormulaPtr mkSubset(ExprPtr a, ExprPtr b);

/** a = b. */
FormulaPtr mkEqual(ExprPtr a, ExprPtr b);

FormulaPtr mkSome(ExprPtr e);
FormulaPtr mkNo(ExprPtr e);
FormulaPtr mkLone(ExprPtr e);
FormulaPtr mkOne(ExprPtr e);

/** acyclic[r]: the transitive closure of r hits no self-loop. */
FormulaPtr mkAcyclic(ExprPtr r);

/** irreflexive[r]: r itself hits no self-loop. */
FormulaPtr mkIrreflexive(ExprPtr r);

/**
 * total[r, s]: r is a strict total order on the set s, i.e. r is inside
 * s->s, is transitive and irreflexive, and relates every distinct pair of
 * s in one direction or the other.
 */
FormulaPtr mkTotal(ExprPtr r, ExprPtr s);

// --- connectives -------------------------------------------------------------

FormulaPtr mkAnd(FormulaPtr a, FormulaPtr b);
FormulaPtr mkOr(FormulaPtr a, FormulaPtr b);
FormulaPtr mkNot(FormulaPtr a);
FormulaPtr mkImplies(FormulaPtr a, FormulaPtr b);
FormulaPtr mkIff(FormulaPtr a, FormulaPtr b);

/** Conjunction of a list (mkTrue() when empty). */
FormulaPtr mkAndAll(const std::vector<FormulaPtr> &formulas);

/** Disjunction of a list (mkFalse() when empty). */
FormulaPtr mkOrAll(const std::vector<FormulaPtr> &formulas);

// --- operator sugar ----------------------------------------------------------

inline FormulaPtr operator&&(FormulaPtr a, FormulaPtr b) { return mkAnd(a, b); }
inline FormulaPtr operator||(FormulaPtr a, FormulaPtr b) { return mkOr(a, b); }
inline FormulaPtr operator!(FormulaPtr a) { return mkNot(a); }

} // namespace lts::rel

#endif // LTS_REL_FORMULA_HH
