/**
 * @file
 * Relational-algebra expression AST.
 *
 * This is the expression half of the project's bounded relational logic —
 * the role Kodkod plays underneath Alloy in the paper's toolflow. An
 * expression denotes either a set of atoms (arity 1) or a binary relation
 * over atoms (arity 2) in a finite universe of size n. Expressions are
 * immutable DAGs whose nodes are shared by shared_ptr (not interned:
 * building the same term twice gives two nodes with equal hashes), built
 * from:
 *
 *   - relation variables (free relations the solver searches over),
 *   - constants (explicit bit-matrices, used e.g. for relaxation masks),
 *   - the Alloy operator set of Table 3 in the paper: union (+),
 *     intersection (&), difference (-), relational join (.), transpose (~),
 *     transitive closure (^), reflexive-transitive closure (*), cross
 *     product (->), domain restriction (<:) and range restriction (:>),
 *     plus the identity and universe constants.
 *
 * Expressions are evaluated two ways: concretely against an Instance
 * (rel/eval.hh) and symbolically into AIG gates for SAT (rel/encoder.hh).
 */

#ifndef LTS_REL_EXPR_HH
#define LTS_REL_EXPR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/bitset.hh"

namespace lts::rel
{

/** Expression node kinds. */
enum class ExprKind
{
    Var,          ///< A declared relation variable (arity 1 or 2).
    Univ,         ///< All atoms (arity 1).
    None,         ///< Empty set or relation (either arity).
    Iden,         ///< Identity relation (arity 2).
    Const,        ///< Explicit constant contents.
    Union,        ///< a + b
    Intersect,    ///< a & b
    Diff,         ///< a - b
    Join,         ///< a . b  (relational composition / join)
    Product,      ///< a -> b (cross product of two sets)
    Transpose,    ///< ~a
    Closure,      ///< ^a (one or more steps)
    RClosure,     ///< *a (zero or more steps)
    DomRestrict,  ///< s <: r (keep pairs whose source is in s)
    RanRestrict,  ///< r :> s (keep pairs whose target is in s)
};

class Expr;

/** Shared handle to an immutable expression node. */
using ExprPtr = std::shared_ptr<const Expr>;

/**
 * An immutable relational expression node. Use the free factory
 * functions and operators below rather than constructing nodes directly;
 * they check arities.
 */
class Expr
{
  public:
    ExprKind kind;
    int arity;          ///< 1 (set of atoms) or 2 (binary relation)
    int varId = -1;     ///< for Var: index into the vocabulary
    std::string name;   ///< for Var: diagnostic name
    ExprPtr lhs;
    ExprPtr rhs;
    Bitset constSet;       ///< for Const with arity 1
    BitMatrix constMatrix; ///< for Const with arity 2

    /**
     * Structural hash, set by the factory: kind, arity, children's
     * hashes, a Var's id and name, a Const's size and bits. No pointers
     * or std::hash, so it is the same in every process (cache keys).
     */
    uint64_t hash = 0;

    /** Render in Alloy-ish surface syntax for diagnostics. */
    std::string toString() const;
};

// --- leaf factories ---------------------------------------------------------

/** A declared relation variable. @p arity must be 1 or 2. */
ExprPtr mkVar(int var_id, const std::string &name, int arity);

/** The set of all atoms. */
ExprPtr mkUniv();

/** The empty set (@p arity 1) or empty relation (@p arity 2). */
ExprPtr mkNone(int arity);

/** The identity relation. */
ExprPtr mkIden();

/** A constant set of atoms. */
ExprPtr mkConst(Bitset contents);

/** A constant binary relation. */
ExprPtr mkConst(BitMatrix contents);

// --- combining operators ----------------------------------------------------

ExprPtr mkUnion(ExprPtr a, ExprPtr b);
ExprPtr mkIntersect(ExprPtr a, ExprPtr b);
ExprPtr mkDiff(ExprPtr a, ExprPtr b);

/**
 * Relational join a.b. Supported arity combinations:
 * set.rel (image), rel.set (preimage), rel.rel (composition).
 */
ExprPtr mkJoin(ExprPtr a, ExprPtr b);

/** Cross product of two sets: arity-2 result. */
ExprPtr mkProduct(ExprPtr a, ExprPtr b);

ExprPtr mkTranspose(ExprPtr a);
ExprPtr mkClosure(ExprPtr a);
ExprPtr mkRClosure(ExprPtr a);

/** Domain restriction s <: r. */
ExprPtr mkDomRestrict(ExprPtr set, ExprPtr r);

/** Range restriction r :> s. */
ExprPtr mkRanRestrict(ExprPtr r, ExprPtr set);

// --- operator sugar ---------------------------------------------------------

inline ExprPtr operator+(ExprPtr a, ExprPtr b) { return mkUnion(a, b); }
inline ExprPtr operator&(ExprPtr a, ExprPtr b) { return mkIntersect(a, b); }
inline ExprPtr operator-(ExprPtr a, ExprPtr b) { return mkDiff(a, b); }

/** Join sugar; C++ has no postfix '.', so use a/b for a.b. */
inline ExprPtr operator/(ExprPtr a, ExprPtr b) { return mkJoin(a, b); }

} // namespace lts::rel

#endif // LTS_REL_EXPR_HH
