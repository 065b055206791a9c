#include "mm/model.hh"

#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common/hash.hh"
#include "mm/exprs.hh"

namespace lts::mm
{

using namespace rel;

std::string
toString(RTag tag)
{
    switch (tag) {
      case RTag::RI:
        return "RI";
      case RTag::DMO:
        return "DMO";
      case RTag::DF:
        return "DF";
      case RTag::DRMW:
        return "DRMW";
      case RTag::RD:
        return "RD";
      case RTag::DS:
        return "DS";
    }
    return "?";
}

Model::Model(std::string name, ModelFeatures features)
    : modelName(std::move(name)), feats(features)
{
    // Type sets.
    baseEnv.set(kR, vocabulary.declare(kR, 1));
    baseEnv.set(kW, vocabulary.declare(kW, 1));
    if (feats.fences)
        baseEnv.set(kF, vocabulary.declare(kF, 1));

    // Annotation sets.
    // ACQ/REL access annotations are independent of AR fences: a model
    // with lwsync-style fences but no annotated accesses (Power) must not
    // drag two unconstrained annotation sets into the search space.
    if (feats.acqRelAccess) {
        baseEnv.set(kAcq, vocabulary.declare(kAcq, 1));
        baseEnv.set(kRel, vocabulary.declare(kRel, 1));
    }
    if (feats.acqRelFence)
        baseEnv.set(kAcqRel, vocabulary.declare(kAcqRel, 1));
    if (feats.scAccess || feats.scFence)
        baseEnv.set(kSc, vocabulary.declare(kSc, 1));

    // Structural relations (static part).
    baseEnv.set(kPo, vocabulary.declare(kPo, 2));
    baseEnv.set(kSloc, vocabulary.declare(kSloc, 2));
    if (feats.deps) {
        baseEnv.set(kAddr, vocabulary.declare(kAddr, 2));
        baseEnv.set(kData, vocabulary.declare(kData, 2));
        baseEnv.set(kCtrl, vocabulary.declare(kCtrl, 2));
    }
    if (feats.rmw)
        baseEnv.set(kRmw, vocabulary.declare(kRmw, 2));

    if (feats.scopes) {
        baseEnv.set(kScopeWg, vocabulary.declare(kScopeWg, 1));
        baseEnv.set(kScopeSys, vocabulary.declare(kScopeSys, 1));
        baseEnv.set(kSameWg, vocabulary.declare(kSameWg, 2));
    }

    // Dynamic (execution/outcome) relations.
    baseEnv.set(kRf, vocabulary.declare(kRf, 2));
    baseEnv.set(kCo, vocabulary.declare(kCo, 2));
    if (feats.scOrder)
        baseEnv.set(kScOrd, vocabulary.declare(kScOrd, 2));
}

const Axiom &
Model::axiom(const std::string &name) const
{
    for (const auto &a : axiomList) {
        if (a.name == name)
            return a;
    }
    throw std::out_of_range("model " + modelName + " has no axiom " + name);
}

Axiom &
Model::axiomMut(const std::string &name)
{
    for (auto &a : axiomList) {
        if (a.name == name)
            return a;
    }
    throw std::out_of_range("model " + modelName + " has no axiom " + name);
}

std::string
Model::digest() const
{
    // The digest covers everything a formula can observe about the
    // definition, built at two probe sizes: formulas are functions of n,
    // and n = 2 alone can hide size-dependent structure (closures over
    // constants, the index order) that n = 3 exposes. Root structural
    // hashes make it a pure function of the definition, at the cost of
    // being conservative: two syntactically different but equivalent
    // predicates hash apart and merely miss the cache.
    uint64_t h = hashInit();
    h = hashCombine(h, std::string_view("lts-model-v2"));
    h = hashCombine(h, modelName);
    for (bool flag : {feats.fences, feats.deps, feats.rmw,
                      feats.acqRelAccess, feats.scAccess, feats.acqRelFence,
                      feats.scFence, feats.scOrder, feats.scopes})
        h = hashCombine(h, static_cast<uint64_t>(flag));
    for (size_t i = 0; i < vocabulary.size(); i++) {
        const VarDecl &d = vocabulary.decl(static_cast<int>(i));
        h = hashCombine(h, d.name);
        h = hashCombine(h, static_cast<uint64_t>(d.arity));
    }
    for (size_t n : {size_t(2), size_t(3)}) {
        h = hashCombine(h, static_cast<uint64_t>(n));
        for (const auto &fact : wellFormedFacts(n)) {
            h = hashCombine(h, fact.label);
            h = hashCombine(h, fact.formula->hash);
        }
        for (const auto &a : axiomList) {
            h = hashCombine(h, a.name);
            h = hashCombine(h, a.pred(*this, baseEnv, n)->hash);
            if (a.relaxedPred)
                h = hashCombine(h, a.relaxedPred(*this, baseEnv, n)->hash);
        }
        for (const auto &r : relaxList) {
            h = hashCombine(h, toString(r.tag));
            h = hashCombine(h, r.name);
            h = hashCombine(h, r.demoteFrom.value_or(""));
            h = hashCombine(h, r.demoteTo.value_or(""));
            h = hashCombine(h, r.demoteCarrier);
            for (size_t e = 0; e < n; e++) {
                ExprPtr ev = singleton(e, n);
                h = hashCombine(h, r.applies(baseEnv, ev, n)->hash);
                // The perturbation is a function on environments; its
                // observable effect is how the axioms read through the
                // perturbed relations, so hash those formulas.
                Env perturbed = r.perturb(baseEnv, ev, n);
                h = hashCombine(h, allAxiomsRelaxed(perturbed, n)->hash);
            }
        }
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<NamedFact>
Model::wellFormedFacts(size_t n) const
{
    const Env &env = baseEnv;
    std::vector<NamedFact> facts;
    auto add = [&facts](std::string label, FormulaPtr f) {
        facts.push_back({std::move(label), std::move(f)});
    };
    ExprPtr r = env.get(kR);
    ExprPtr w = env.get(kW);
    ExprPtr po = env.get(kPo);
    ExprPtr sloc = env.get(kSloc);
    ExprPtr rf = env.get(kRf);
    ExprPtr co = env.get(kCo);
    ExprPtr memory = mem(env);

    // Event types partition the universe.
    add("types.rw-disjoint", mkNo(r & w));
    if (feats.fences) {
        ExprPtr f = env.get(kF);
        add("types.rf-disjoint", mkNo(r & f));
        add("types.wf-disjoint", mkNo(w & f));
        add("types.cover", mkEqual(r + w + f, mkUniv()));
    } else {
        add("types.cover", mkEqual(r + w, mkUniv()));
    }

    // Program order: transitive, consistent with atom index order (a
    // symmetry-breaking predicate), forming contiguous thread blocks.
    add("po.index-order", mkSubset(po, indexLt(n)));
    add("po.transitive", mkSubset(mkJoin(po, po), po));
    ExprPtr st = sameThread(env);
    ExprPtr st_refl = st + mkIden();
    add("po.thread-equivalence", mkSubset(mkJoin(st_refl, st_refl), st_refl));
    // Convexity: a thread owns a contiguous range of atom indices.
    for (size_t i = 0; i < n; i++) {
        for (size_t k = i + 2; k < n; k++) {
            for (size_t j = i + 1; j < k; j++) {
                add("po.thread-convexity[" + std::to_string(i) + "," +
                        std::to_string(j) + "," + std::to_string(k) + "]",
                    mkImplies(cellIn(st, i, k, n), cellIn(st, i, j, n)));
            }
        }
    }

    // Same-location: an equivalence over memory events.
    add("sloc.memory-only", mkSubset(sloc, mkProduct(memory, memory)));
    add("sloc.reflexive", mkSubset(mkDomRestrict(memory, mkIden()), sloc));
    add("sloc.symmetric", mkEqual(sloc, mkTranspose(sloc)));
    add("sloc.transitive", mkSubset(mkJoin(sloc, sloc), sloc));

    // Reads-from: write -> read, same location, at most one writer each.
    add("rf.shape", mkSubset(rf, mkRanRestrict(mkDomRestrict(w, sloc), r)));
    add("rf.functional", mkSubset(mkJoin(rf, mkTranspose(rf)), mkIden()));

    // Coherence: strict total order over the writes of each location.
    add("co.shape", mkSubset(co, mkRanRestrict(mkDomRestrict(w, sloc), w)));
    add("co.transitive", mkSubset(mkJoin(co, co), co));
    add("co.acyclic", mkAcyclic(co));
    add("co.total-per-location",
        mkSubset(mkRanRestrict(mkDomRestrict(w, sloc), w) - mkIden(),
                 co + mkTranspose(co)));

    // Dependencies: from reads to po-later events.
    if (feats.deps) {
        add("deps.addr-shape",
            mkSubset(env.get(kAddr),
                     mkRanRestrict(mkDomRestrict(r, po), memory)));
        add("deps.data-shape",
            mkSubset(env.get(kData), mkRanRestrict(mkDomRestrict(r, po), w)));
        add("deps.ctrl-shape",
            mkSubset(env.get(kCtrl), mkDomRestrict(r, po)));
    }

    // RMW pairs: po-adjacent, same location, read then write (Figure 4).
    if (feats.rmw) {
        ExprPtr adjacent = po - mkJoin(po, po);
        add("rmw.shape",
            mkSubset(env.get(kRmw),
                     mkRanRestrict(mkDomRestrict(r, adjacent & sloc), w)));
    }

    // Annotations: pairwise disjoint, confined to their carriers.
    std::vector<std::string> annots;
    for (const auto &name : {kAcq, kRel, kAcqRel, kSc}) {
        if (env.has(name))
            annots.push_back(name);
    }
    for (size_t i = 0; i < annots.size(); i++) {
        for (size_t j = i + 1; j < annots.size(); j++) {
            add("annot.disjoint[" + annots[i] + "," + annots[j] + "]",
                mkNo(env.get(annots[i]) & env.get(annots[j])));
        }
    }
    ExprPtr fence_set = feats.fences ? env.get(kF) : mkNone(1);
    if (env.has(kAcq)) {
        ExprPtr carrier = feats.acqRelAccess ? (r + fence_set) : fence_set;
        add("annot.acq-carrier", mkSubset(env.get(kAcq), carrier));
        carrier = feats.acqRelAccess ? (w + fence_set) : fence_set;
        add("annot.rel-carrier", mkSubset(env.get(kRel), carrier));
    }
    if (env.has(kAcqRel))
        add("annot.ar-carrier", mkSubset(env.get(kAcqRel), fence_set));
    if (env.has(kSc)) {
        ExprPtr carrier = mkNone(1);
        if (feats.scAccess)
            carrier = carrier + memory;
        if (feats.scFence)
            carrier = carrier + fence_set;
        add("annot.sc-carrier", mkSubset(env.get(kSc), carrier));
    }

    // Explicit sc order over SC fences (SCC, Figure 17/19): confined,
    // irreflexive, total over SC-fence pairs, and limited to at most one
    // edge — the lone-sc workaround that makes Figure 5c sound for SCC.
    if (feats.scOrder) {
        ExprPtr fsc = fence_set & env.get(kSc);
        ExprPtr sc = env.get(kScOrd);
        add("sc-order.shape", mkSubset(sc, mkProduct(fsc, fsc)));
        add("sc-order.irreflexive", mkIrreflexive(sc));
        add("sc-order.total",
            mkSubset(mkProduct(fsc, fsc) - mkIden(), sc + mkTranspose(sc)));
        add("sc-order.lone", mkLone(sc));
    }

    // Scopes: swg is an equivalence refined by sameThread, workgroups
    // occupy contiguous thread (hence atom) ranges, and every
    // synchronizing operation carries exactly one scope.
    if (feats.scopes) {
        ExprPtr swg = env.get(kSameWg);
        add("scopes.swg-refines-threads", mkSubset(st + mkIden(), swg));
        add("scopes.swg-symmetric", mkEqual(swg, mkTranspose(swg)));
        add("scopes.swg-transitive", mkSubset(mkJoin(swg, swg), swg));
        for (size_t i = 0; i < n; i++) {
            for (size_t k = i + 2; k < n; k++) {
                for (size_t j = i + 1; j < k; j++) {
                    add("scopes.swg-convexity[" + std::to_string(i) + "," +
                            std::to_string(j) + "," + std::to_string(k) + "]",
                        mkImplies(cellIn(swg, i, k, n),
                                  cellIn(swg, i, j, n)));
                }
            }
        }
        ExprPtr sync_ops = mkNone(1);
        if (env.has(kAcq))
            sync_ops = sync_ops + env.get(kAcq) + env.get(kRel);
        if (feats.fences)
            sync_ops = sync_ops + env.get(kF);
        ExprPtr s_wg = env.get(kScopeWg);
        ExprPtr s_sys = env.get(kScopeSys);
        add("scopes.disjoint", mkNo(s_wg & s_sys));
        add("scopes.cover-sync-ops", mkEqual(s_wg + s_sys, sync_ops));
    }

    for (const auto &f : extraFacts)
        add(f.label, f.fn(*this, env, n));

    return facts;
}

std::vector<NamedFact>
Model::extraWellFormedFacts(size_t n) const
{
    std::vector<NamedFact> facts;
    for (const auto &f : extraFacts)
        facts.push_back({f.label, f.fn(*this, baseEnv, n)});
    return facts;
}

FormulaPtr
Model::wellFormed(size_t n) const
{
    std::vector<FormulaPtr> parts;
    for (auto &fact : wellFormedFacts(n))
        parts.push_back(std::move(fact.formula));
    return mkAndAll(parts);
}

FormulaPtr
Model::allAxioms(const Env &env, size_t n) const
{
    std::vector<FormulaPtr> parts;
    for (const auto &a : axiomList)
        parts.push_back(a.pred(*this, env, n));
    return mkAndAll(parts);
}

FormulaPtr
Model::allAxiomsRelaxed(const Env &env, size_t n) const
{
    std::vector<FormulaPtr> parts;
    for (const auto &a : axiomList) {
        if (a.relaxedPred)
            parts.push_back(a.relaxedPred(*this, env, n));
        else
            parts.push_back(a.pred(*this, env, n));
    }
    return mkAndAll(parts);
}

rel::SymmetrySpec
Model::symmetrySpec(size_t n) const
{
    using rel::CellCond;
    using rel::ConditionalPerm;

    rel::SymmetrySpec spec;
    const int po_id = vocabulary.find(kPo).id;
    const int swg_id = feats.scopes ? vocabulary.find(kSameWg).id : -1;

    // Static relations except po and swg. Both are pointwise invariant
    // under a guarded block swap: po because complete equal-size blocks
    // carry identical total orders and never cross threads, swg because
    // the swg(i, j) guard plus convexity puts the whole swapped range in
    // one workgroup. Dynamic relations are left out too — enumeration
    // blocks only static cells, and witnesses are re-resolved in solves
    // that exclude this layer.
    for (int id : staticVarIds()) {
        if (id == po_id || id == swg_id)
            continue;
        spec.lexVarIds.push_back(id);
    }

    // The po cells certifying that [start, start+s) is one complete
    // thread block: starts a block, chains internally, ends a block.
    auto blockConds = [&](size_t start, size_t s, std::vector<CellCond> &out) {
        if (start > 0)
            out.push_back({po_id, start - 1, start, false});
        for (size_t k = 0; k + 1 < s; k++)
            out.push_back({po_id, start + k, start + k + 1, true});
        if (start + s < n)
            out.push_back({po_id, start + s - 1, start + s, false});
    };

    // Generators: swap the complete equal-size blocks [i, i+s) and
    // [j, j+s), guarded by both ranges being complete blocks (and lying
    // in the same workgroup for scoped models — permuting blocks across
    // workgroups changes the wg partition, which is not a symmetry).
    for (size_t s = 1; 2 * s <= n; s++) {
        for (size_t i = 0; i + 2 * s <= n; i++) {
            for (size_t j = i + s; j + s <= n; j++) {
                ConditionalPerm g;
                g.perm.resize(n);
                std::iota(g.perm.begin(), g.perm.end(), size_t{0});
                for (size_t k = 0; k < s; k++) {
                    g.perm[i + k] = j + k;
                    g.perm[j + k] = i + k;
                }
                blockConds(i, s, g.conditions);
                blockConds(j, s, g.conditions);
                if (swg_id >= 0)
                    g.conditions.push_back({swg_id, i, j, true});
                spec.generators.push_back(std::move(g));
            }
        }
    }

    // Forbidden patterns: a complete block of size s immediately
    // followed by a (same-workgroup) block of size > s. Sorting blocks
    // by non-increasing size — within each workgroup span, so scoped
    // contiguity survives — reaches a member of every orbit that avoids
    // all patterns, and equal-size swaps preserve sortedness, so the
    // patterns compose soundly with the lex-leader generators.
    for (size_t s = 1; 2 * s + 1 <= n; s++) {
        for (size_t i = 0; i + 2 * s + 1 <= n; i++) {
            std::vector<CellCond> pat;
            if (i > 0)
                pat.push_back({po_id, i - 1, i, false});
            for (size_t k = 0; k + 1 < s; k++)
                pat.push_back({po_id, i + k, i + k + 1, true});
            pat.push_back({po_id, i + s - 1, i + s, false});
            for (size_t k = 0; k < s; k++)
                pat.push_back({po_id, i + s + k, i + s + k + 1, true});
            if (swg_id >= 0)
                pat.push_back({swg_id, i, i + s, true});
            spec.forbidden.push_back(std::move(pat));
        }
    }

    return spec;
}

std::vector<int>
Model::staticVarIds() const
{
    std::vector<int> ids;
    for (size_t i = 0; i < vocabulary.size(); i++) {
        const auto &d = vocabulary.decl(static_cast<int>(i));
        if (d.name != kRf && d.name != kCo && d.name != kScOrd)
            ids.push_back(d.id);
    }
    return ids;
}

std::vector<int>
Model::dynamicVarIds() const
{
    std::vector<int> ids;
    for (size_t i = 0; i < vocabulary.size(); i++) {
        const auto &d = vocabulary.decl(static_cast<int>(i));
        if (d.name == kRf || d.name == kCo || d.name == kScOrd)
            ids.push_back(d.id);
    }
    return ids;
}

// ---------------------------------------------------------------------------
// Generic relaxations (Figure 6)
// ---------------------------------------------------------------------------

namespace
{

/** Mask @p rel so no edge touches the removed event. */
ExprPtr
maskBinary(const ExprPtr &relation, const ExprPtr &ev)
{
    ExprPtr keep = mkUniv() - ev;
    return mkRanRestrict(mkDomRestrict(keep, relation), keep);
}

} // namespace

Relaxation
makeRI()
{
    Relaxation r;
    r.tag = RTag::RI;
    r.name = "RI";
    r.applies = [](const Env &, const ExprPtr &, size_t) {
        return mkTrue();
    };
    r.perturb = [](const Env &env, const ExprPtr &ev, size_t) {
        Env out;
        for (const auto &[name, expr] : env.all()) {
            if (expr->arity == 1) {
                out.set(name, expr - ev);
            } else if (name == kCo) {
                // Figure 8: take the transitive closure *before* masking so
                // removing a middle write does not sever the chain.
                out.set(name, maskBinary(mkClosure(expr), ev));
            } else {
                out.set(name, maskBinary(expr, ev));
            }
        }
        return out;
    };
    return r;
}

Relaxation
makeRD()
{
    Relaxation r;
    r.tag = RTag::RD;
    r.name = "RD";
    r.applies = [](const Env &env, const ExprPtr &ev, size_t) {
        ExprPtr deps = env.get(kAddr) + env.get(kData) + env.get(kCtrl);
        return mkSome(mkDomRestrict(ev, deps));
    };
    r.perturb = [](const Env &env, const ExprPtr &ev, size_t) {
        Env out = env;
        for (const auto &name : {kAddr, kData, kCtrl}) {
            out.set(name, env.get(name) - mkDomRestrict(ev, env.get(name)));
        }
        return out;
    };
    return r;
}

Relaxation
makeDRMW()
{
    Relaxation r;
    r.tag = RTag::DRMW;
    r.name = "DRMW";
    r.applies = [](const Env &env, const ExprPtr &ev, size_t) {
        return mkSome(mkDomRestrict(ev, env.get(kRmw)));
    };
    r.perturb = [](const Env &env, const ExprPtr &ev, size_t) {
        Env out = env;
        out.set(kRmw, env.get(kRmw) - mkDomRestrict(ev, env.get(kRmw)));
        return out;
    };
    return r;
}

Relaxation
makeDemote(RTag tag, const std::string &name, const std::string &from_set,
           std::optional<std::string> to_set, const std::string &carrier)
{
    Relaxation r;
    r.tag = tag;
    r.name = name;
    r.applies = [from_set, carrier](const Env &env, const ExprPtr &ev,
                                    size_t) {
        return mkSome(ev & env.get(from_set) & env.get(carrier));
    };
    r.perturb = [from_set, to_set](const Env &env, const ExprPtr &ev,
                                   size_t) {
        Env out = env;
        out.set(from_set, env.get(from_set) - ev);
        if (to_set)
            out.set(*to_set, env.get(*to_set) + ev);
        return out;
    };
    r.demoteFrom = from_set;
    r.demoteTo = to_set;
    r.demoteCarrier = carrier;
    return r;
}

} // namespace lts::mm
