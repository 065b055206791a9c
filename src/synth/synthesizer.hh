/**
 * @file
 * SAT-based litmus test suite synthesis (Section 5 of the paper).
 *
 * For each axiom of a model and each exact test size, the synthesizer
 * asserts the minimality-criterion formula into the relational solver and
 * enumerates every satisfying instance, blocking on the *static* part of
 * each found test so each program is produced once regardless of how many
 * witness executions it has. Instances are read back as litmus tests,
 * canonicalized (Section 5.1), and deduplicated; per-axiom suites union
 * into the per-model suite of Section 5.2.
 *
 * With SynthOptions::symmetryBreaking (default on) the solver also
 * carries the model's lex-leader symmetry-breaking predicates, and each
 * found model is blocked together with every symmetric image of it
 * (orbit blocking), so enumeration produces one SAT model per
 * isomorphism class. The suite stays byte-identical either way: each
 * kept test is re-derived by pinning a class-canonical representative
 * program and lex-minimizing its witness in a solve that excludes the
 * symmetry and blocking layers, making the emitted bytes a pure
 * function of the class rather than of enumeration order.
 *
 * One engine: every entry point — synthesizeAll, synthesizeAxiom,
 * synthesizeUnionDirect and the service (one-shot or resident) — builds
 * one BaseEncoding per test size and sweeps the selected violation
 * layers through it. The axiom-independent part of the criterion
 * (well-formedness plus the relaxation conjunct) is asserted,
 * simplified and symmetry-broken once per size; each axiom's violation
 * becomes a retractable fact layer (rel::FactHandle) whose blocking and
 * learned clauses are retired when the sweep moves on. Each size is one
 * job; jobs run on a thread pool when SynthOptions::jobs != 1 and
 * results are merged in a fixed order — axiom declaration order, then
 * size, then canonical serialization — so the output is byte-identical
 * to a serial run regardless of completion order.
 */

#ifndef LTS_SYNTH_SYNTHESIZER_HH
#define LTS_SYNTH_SYNTHESIZER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "litmus/test.hh"
#include "mm/model.hh"
#include "rel/formula.hh"

namespace lts::synth
{

/**
 * A point-in-time copy of the progress counters: plain integers, safe
 * to store, compare, and serialize after the run. Drivers should copy
 * one of these (SynthProgress::snapshot) into their results instead of
 * reading the live atomics — the snapshot is immutable even if the same
 * SynthProgress is reused (reset) for a later run.
 */
struct SynthProgressSnapshot
{
    uint64_t jobsQueued = 0;  ///< size jobs submitted (one per swept size)
    uint64_t jobsRunning = 0; ///< jobs executing at snapshot time
    uint64_t jobsDone = 0;    ///< jobs finished
    uint64_t conflicts = 0;   ///< SAT conflicts, all jobs
    uint64_t restarts = 0;    ///< SAT restarts, all jobs
    uint64_t instances = 0;   ///< SAT models enumerated
    uint64_t sbpClauses = 0;  ///< symmetry-breaking clauses emitted
    uint64_t eliminatedVars = 0;  ///< vars removed by simplify
    uint64_t subsumedClauses = 0; ///< clauses removed by simplify
};

/**
 * Live progress counters for a synthesis run. Safe to read from any
 * thread while jobs execute; a bench harness can poll these (snapshot)
 * while jobs run or copy a final snapshot into its results. Drivers
 * that reuse one SynthProgress across runs call reset() between them
 * instead of re-zeroing fields ad hoc.
 */
struct SynthProgress
{
    std::atomic<uint64_t> jobsQueued{0};  ///< size jobs submitted (one per
                                          ///< swept size)
    std::atomic<uint64_t> jobsRunning{0}; ///< jobs currently executing
    std::atomic<uint64_t> jobsDone{0};    ///< jobs finished
    std::atomic<uint64_t> conflicts{0};   ///< SAT conflicts, all jobs
    std::atomic<uint64_t> restarts{0};    ///< SAT restarts, all jobs
    std::atomic<uint64_t> instances{0};   ///< SAT models enumerated
    std::atomic<uint64_t> sbpClauses{0};  ///< symmetry-breaking clauses
                                          ///< emitted, all solvers
    std::atomic<uint64_t> eliminatedVars{0};  ///< vars removed by simplify
    std::atomic<uint64_t> subsumedClauses{0}; ///< clauses removed by simplify

    /** Copy every counter into a plain-integer snapshot. */
    SynthProgressSnapshot snapshot() const;

    /** Zero every counter, ready for the next run. */
    void reset();
};

/** Synthesis knobs; defaults mirror the paper's methodology. */
struct SynthOptions
{
    int minSize = 2;           ///< smallest test size (instructions)
    int maxSize = 4;           ///< largest test size
    litmus::CanonMode canonMode = litmus::CanonMode::Paper;
    bool blockStaticOnly = true;  ///< ablation: block full instances instead
    bool useCanon = true;         ///< ablation: disable symmetry reduction
    uint64_t conflictBudget = 0;  ///< SAT conflict cap per (axiom, size)
                                  ///< query family (0 = off)
    int maxTestsPerSize = 0;      ///< safety cap (0 = off)

    /**
     * In-solver symmetry breaking: install the model's lex-leader
     * predicates and forbidden patterns (mm::Model::symmetrySpec) into
     * each enumeration solver, and block every symmetric image of each
     * found model (orbit blocking) so one SAT model is enumerated per
     * isomorphism class instead of one per class member. Suites are
     * byte-identical with the knob on or off — only rawInstances and
     * wall time change.
     */
    bool symmetryBreaking = true;

    /**
     * Retired: synthesis always sweeps per-size base encodings. Kept
     * only for callers that still assign it; every sweep throws
     * std::invalid_argument when it is false.
     */
    bool incremental = true;

    /**
     * Worker threads: one job per size, each with its own BaseEncoding.
     * 1 runs jobs inline on the caller thread; 0 uses all hardware
     * threads. Results are merged deterministically, so output is
     * byte-identical for any value.
     */
    int jobs = 1;

    /**
     * Run the SAT backend's SatELite-style preprocessing pass (subsumption,
     * self-subsuming resolution, bounded variable elimination — see
     * sat/simplify.hh) over each solver's permanent encoding before
     * enumeration. Relation cells and fact-layer selectors are frozen, so
     * suites are byte-identical with the knob on or off; only the search
     * effort changes.
     */
    bool simplify = true;

    /**
     * When non-empty, every enumeration solver logs a DRAT-style proof
     * trace (see sat/drat.hh) into this directory, and each shard that
     * exhausts its enumeration records its final Unsat answer as a
     * checkable conclusion. Each size's BaseEncoding writes one file,
     * carrying one conclusion per swept layer (see proofFilePath).
     * Probe solves (witness re-derivation) are logged but never
     * concluded. A proof knob is an engine knob: suites are
     * byte-identical with logging on or off, and the store/service
     * digests ignore it.
     */
    std::string proofDir;

    /** Write text-format proofs instead of the compact binary form. */
    bool proofText = false;

    /**
     * When non-empty, each shard that exhausts its enumeration also
     * dumps its final post-simplify CNF — live clauses plus fact-layer
     * selector units — as DIMACS into this directory, one
     * "<model>.<axiom>.n<size>.cnf" per shard, for offline cross-checks
     * with external solvers. Engine knob, like proofDir.
     */
    std::string dumpDimacsDir;

    /** Optional live counters, updated by every job. Not owned. */
    SynthProgress *progress = nullptr;
};

/** A synthesized suite plus bookkeeping for the runtime figures. */
struct Suite
{
    std::string model;
    std::string axiom; ///< axiom name, or "union"
    std::vector<litmus::LitmusTest> tests;
    std::map<int, int> testsBySize;    ///< size -> #tests
    std::map<int, double> secondsBySize;
    std::map<int, uint64_t> instancesBySize; ///< size -> SAT models found
    std::map<int, uint64_t> sbpClausesBySize; ///< size -> SBP clauses emitted
                                              ///< (summed over solvers)
    uint64_t rawInstances = 0; ///< SAT models before canonicalization
    bool truncated = false;    ///< a budget or cap was hit

    double
    totalSeconds() const
    {
        double s = 0;
        for (auto [k, v] : secondsBySize)
            s += v;
        return s;
    }
};

/**
 * The result of one (axiom, size) query family — the unit of work the
 * engines shard by and the suite store caches by. Tests are canonical
 * (per the options), deduplicated within the shard, and sorted by their
 * canonical serialization, so a shard's bytes are a pure function of
 * (model, axiom, size, semantic options) — independent of engine,
 * thread count, and enumeration order. assembleShardSuite folds a
 * size-ascending run of these into a Suite.
 */
struct ShardResult
{
    std::vector<litmus::LitmusTest> tests;
    uint64_t rawInstances = 0;
    uint64_t sbpClauses = 0;
    bool truncated = false;
    double seconds = 0;
};

/**
 * The proof file a size's BaseEncoding logs into under options.proofDir:
 * "<model>.n<size>.drat", one per size, carrying one conclusion per
 * swept layer. Returns an empty string when options.proofDir is empty.
 */
std::string proofFilePath(const SynthOptions &options,
                          const std::string &model, int size);

/**
 * Deterministic merge of one axiom's per-size shards into a Suite:
 * sizes ascending, tests in canonical-key order within each size,
 * cross-size duplicates dropped, renamed "model/label#i" by final
 * position. by_size[i] is size min_size + i.
 */
Suite assembleShardSuite(const mm::Model &model, const std::string &label,
                         const std::vector<ShardResult> &by_size,
                         int min_size);

/**
 * A per-(model, size) base encoding: the axiom-independent criterion
 * asserted and simplified once, symmetry breaking installed, ready to
 * sweep violation layers. Every synthesis path sweeps these; one-shot
 * queries free each one when its size is done, while ltsd keeps them
 * hot across requests, so re-synthesizing one edited axiom's shard
 * skips the encoding build entirely. Not thread-safe; one solver, one
 * caller at a time. Shard output is a pure function of the layer (the
 * enumeration pins class-canonical representatives, so learned state
 * never leaks into the bytes).
 *
 * No reference to the construction-time Model is retained: the sweep
 * takes the model by argument, so a daemon may keep the encoding hot
 * across model *edits* as long as the edited model's minimalityBase at
 * this size is structurally identical (the service layer checks exactly
 * that digest before reusing one).
 *
 * With options.proofDir set at construction the encoding owns a proof
 * writer for proofFilePath(options, model, size), and every layer swept
 * through it concludes there.
 */
class BaseEncoding
{
  public:
    BaseEncoding(const mm::Model &model, int size,
                 const SynthOptions &options);
    ~BaseEncoding();
    BaseEncoding(const BaseEncoding &) = delete;
    BaseEncoding &operator=(const BaseEncoding &) = delete;

    /**
     * Enumerate one axiom's shard on the encoding. @p model must have
     * the same vocabulary and the same minimalityBase structure as the
     * construction-time model (it may be a different instance, e.g.
     * after an axiom-predicate edit that set relaxedPred explicitly).
     */
    ShardResult synthesizeShard(const mm::Model &model,
                                const std::string &axiom_name,
                                const SynthOptions &options);

    /**
     * Enumerate the shard of an arbitrary violation layer, labelled
     * @p label in proofs and DIMACS dumps. synthesizeShard passes one
     * axiom's violation; synthesizeUnionDirect passes any axiom's.
     */
    ShardResult synthesizeLayer(const mm::Model &model,
                                const std::string &label,
                                const rel::FormulaPtr &violation,
                                const SynthOptions &options);

    int size() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** One size's share of a sweep: which axioms, and where the encoding lives. */
struct SizeSweep
{
    int size = 0;
    std::vector<std::string> axioms; ///< swept in this order

    /**
     * Null: build the size's encoding for this sweep and free it as soon
     * as the size is done (one-shot queries). Otherwise build into
     * *resident when it is empty and leave it there for later sweeps
     * (ltsd). A job touches only its own slot, so callers create the
     * slots before the sweep, on their own thread.
     */
    std::unique_ptr<BaseEncoding> *resident = nullptr;
};

/**
 * Run each size's sweep as one job — inline when options.jobs == 1, on a
 * thread pool otherwise. result[i][k] is sweeps[i].axioms[k] at
 * sweeps[i].size. Every synthesis path ends here; it counts one job per
 * sweep in options.progress.
 */
std::vector<std::vector<ShardResult>>
sweepSizes(const mm::Model &model, const std::vector<SizeSweep> &sweeps,
           const SynthOptions &options);

/** Synthesize the suite for one axiom. */
Suite synthesizeAxiom(const mm::Model &model, const std::string &axiom_name,
                      const SynthOptions &options);

/**
 * Synthesize per-axiom suites and their union (tests minimal for at
 * least one axiom, counted once — Section 5.2). The union suite is the
 * last element, named "union".
 */
std::vector<Suite> synthesizeAll(const mm::Model &model,
                                 const SynthOptions &options);

/**
 * Merge suites into a union suite, deduplicating canonically. The kept
 * tests are stored in canonical form (under options.useCanon) and
 * renumbered "model/union#i" in merge order, so the union never holds
 * non-canonical duplicates or clashing per-axiom names.
 */
Suite unionSuites(const std::vector<Suite> &suites,
                  const SynthOptions &options);

/**
 * Generate the union suite with a single direct query per size (the
 * disjunctive criterion of minimality.hh) instead of merging per-axiom
 * runs. Produces the same test set; the paper's footnote 4 observes the
 * direct query is often slower, which bench/ablation_synth measures.
 */
Suite synthesizeUnionDirect(const mm::Model &model,
                            const SynthOptions &options);

} // namespace lts::synth

#endif // LTS_SYNTH_SYNTHESIZER_HH
