/**
 * @file
 * perfbench-measure — the measured half of the benchmark in perfbench/.
 *
 * perfbench/run.py starts this program in a fresh process per workload run, so
 * the peak RSS it reads back belongs to that run alone, and prints the
 * metrics. This program does the work and reports raw samples as one JSON
 * object on its last stdout line; run.py checks them against the
 * references pinned in perfbench/workloads.json.
 *
 *   perfbench-measure setup --model M
 *   perfbench-measure cold  --model M --bound B
 *   perfbench-measure trace --model M --bound B --ltsd BIN --restart 0|1
 *
 * Every mode runs in the current directory (run.py makes it a scratch
 * directory of the build tree) and synthesizes with the defaults users
 * get from ltsgen — incremental engine, symmetry breaking, simplify, no
 * proof — plus jobs = 1, so per-layer times add up to wall time.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hh"
#include "litmus/digest.hh"
#include "litmus/format.hh"
#include "mm/registry.hh"
#include "rel/encoder.hh"
#include "rel/symmetry.hh"
#include "store/store.hh"
#include "store/wire.hh"
#include "synth/daemon.hh"
#include "synth/minimality.hh"
#include "synth/service.hh"
#include "synth/synthesizer.hh"

extern char **environ;

namespace fs = std::filesystem;
using namespace lts;

namespace
{

// --- arguments and JSON output ----------------------------------------------

class Args
{
  public:
    Args(int argc, char **argv)
    {
        if (argc % 2 != 0)
            throw std::runtime_error("flags come in --name value pairs");
        for (int i = 2; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::runtime_error("bad argument: " + key);
            values[key.substr(2)] = argv[i + 1];
        }
    }

    std::string
    str(const std::string &key) const
    {
        auto it = values.find(key);
        if (it == values.end())
            throw std::runtime_error("missing --" + key);
        return it->second;
    }

    double num(const std::string &key) const { return std::stod(str(key)); }

  private:
    std::map<std::string, std::string> values;
};

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** A JSON object assembled field by field; values are pre-rendered. */
class Json
{
  public:
    Json &
    raw(const std::string &key, const std::string &value)
    {
        body += (body.empty() ? "" : ", ") + quote(key) + ": " + value;
        return *this;
    }
    Json &num(const std::string &key, double v) { return raw(key, number(v)); }
    Json &str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** Pre-rendered JSON values, comma separated. */
std::string
joined(const std::vector<std::string> &values)
{
    std::string out;
    for (size_t i = 0; i < values.size(); i++)
        out += (i ? ", " : "") + values[i];
    return out;
}

std::string
sizesJson(const std::map<int, int> &by_size)
{
    Json j;
    for (const auto &[size, count] : by_size)
        j.num(std::to_string(size), count);
    return j.text();
}

// --- the user's synthesis settings ------------------------------------------

synth::SynthOptions
userOptions(int bound)
{
    synth::SynthOptions options; // ltsgen's defaults
    options.maxSize = bound;
    options.incremental = true;
    options.symmetryBreaking = true;
    options.simplify = true;
    options.jobs = 1;
    return options;
}

/** What a finished query must match: union digest and tests per size. */
std::string
outcomeJson(const synth::SuiteResult &result)
{
    const synth::Suite &suite = result.suites.back();
    // Re-derive the digest from the tests themselves, so a result whose
    // bytes disagree with its own digest field cannot pass.
    std::string digest = litmus::suiteDigest(suite.tests);
    if (digest != result.suiteDigest)
        digest = "inconsistent:" + result.suiteDigest + "/" + digest;
    return Json()
        .str("digest", digest)
        .raw("tests_by_size", sizesJson(suite.testsBySize))
        .text();
}

// --- spans ----------------------------------------------------------------

/**
 * In-memory span recorder: name, start, end and parent of every span,
 * written out once at the end of the run.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer &tracer, int id) : tracer(tracer), id(id) {}
        ~Scope() { tracer.close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int id;
    };

    [[nodiscard]] Scope
    span(const std::string &name)
    {
        int parent = open.empty() ? -1 : open.back();
        spans.push_back({name, now(), 0, parent});
        open.push_back(static_cast<int>(spans.size()) - 1);
        return Scope(*this, open.back());
    }

    /** Summed duration of every span called @p name. */
    double
    total(const std::string &name) const
    {
        double sum = 0;
        for (const auto &s : spans) {
            if (s.name == name)
                sum += s.end - s.start;
        }
        return sum;
    }

    /** Summed duration of the spans that have no parent. */
    double
    topLevel() const
    {
        double sum = 0;
        for (const auto &s : spans) {
            if (s.parent < 0)
                sum += s.end - s.start;
        }
        return sum;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            out << Json()
                       .num("id", static_cast<double>(i))
                       .str("name", s.name)
                       .num("start_s", s.start)
                       .num("end_s", s.end)
                       .num("parent", s.parent)
                       .text()
                << "\n";
        }
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    void
    close(int id)
    {
        spans[static_cast<size_t>(id)].end = now();
        open.pop_back();
    }

    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::vector<Span> spans;
    std::vector<int> open;
};

// --- cold workloads -------------------------------------------------------

/** Set-up of one cold query: build the model, open an empty store. */
struct ColdSetup
{
    std::unique_ptr<mm::Model> model;
    std::unique_ptr<synth::Service> service;
    std::string storeDir;
    double seconds = 0;
};

ColdSetup
coldSetup(const std::string &model_name)
{
    ColdSetup setup;
    setup.storeDir = "store";
    fs::remove_all(setup.storeDir);
    Timer timer;
    setup.model = mm::makeModel(model_name);
    setup.service = std::make_unique<synth::Service>(
        synth::ServiceConfig{setup.storeDir});
    setup.seconds = timer.seconds();
    return setup;
}

/**
 * One set-up, the first in this fresh process: the cold cost a user's
 * ltsgen run pays once.
 */
int
runSetup(const Args &args)
{
    ColdSetup setup = coldSetup(args.str("model"));
    setup.service.reset();
    fs::remove_all(setup.storeDir);
    std::printf("%s\n", Json().num("setup_s", setup.seconds).text().c_str());
    return 0;
}

/** One cold query on a freshly built model and an empty store. */
int
runCold(const Args &args)
{
    const std::string model_name = args.str("model");
    const int bound = static_cast<int>(args.num("bound"));
    ColdSetup setup = coldSetup(model_name);
    synth::SuiteRequest request{model_name, bound, userOptions(bound), ""};
    Json out;
    Timer timer;
    try {
        synth::SuiteResult result =
            setup.service->query(*setup.model, request);
        out.num("wall_s", timer.seconds()).raw("outcome", outcomeJson(result));
    } catch (const std::exception &e) {
        out.num("wall_s", timer.seconds())
            .raw("outcome", Json().str("error", e.what()).text());
    }
    setup.service.reset();
    fs::remove_all(setup.storeDir);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

/** Per-size store record bytes: the shard's tests in interchange text. */
std::string
shardBytes(const synth::ShardResult &shard)
{
    std::ostringstream out;
    litmus::writeLitmusSuite(out, shard.tests);
    return out.str();
}

/**
 * Replays Service::query's cold path through the public calls of each
 * layer, with a span around every call: model, keys, store open and
 * lookups, per-size base encodings, per-axiom shards, assembly, then the
 * store writes. Returns the union suite's outcome and leaves the store's
 * counters in @p store_stats.
 */
std::string
replayCold(const std::string &model_name, int bound, Tracer &tracer,
           store::StoreStats &store_stats, Json &metrics)
{
    synth::SynthProgress progress;
    synth::SynthOptions options = userOptions(bound);
    options.progress = &progress;
    const int min_size = options.minSize;

    std::unique_ptr<mm::Model> model;
    {
        auto span = tracer.span("mm.make_model");
        model = mm::makeModel(model_name);
    }
    std::string model_digest;
    {
        auto span = tracer.span("mm.model_digest");
        model_digest = model->digest();
    }
    std::string options_digest;
    {
        auto span = tracer.span("key.options_digest");
        options_digest = synth::optionsDigest(options);
    }
    std::vector<std::string> axioms;
    for (const auto &axiom : model->axioms())
        axioms.push_back(axiom.name);
    std::vector<std::string> base_digests;
    for (int size = min_size; size <= bound; size++) {
        auto span = tracer.span("key.base_digest");
        base_digests.push_back(synth::baseFormulaDigest(*model, size));
    }
    // The service renders each shard key twice, once to look it up and
    // once to store it; the replay does the same.
    auto shard_key = [&](size_t ai, int size) {
        auto span = tracer.span("key.violation_digest");
        return "shard/" + base_digests[static_cast<size_t>(size - min_size)] +
               "/" + synth::violationDigest(*model, axioms[ai], size) + "/" +
               options_digest + "/n" + std::to_string(size);
    };
    const std::string manifest_key = "suite/" + model_digest + "/n" +
                                     std::to_string(min_size) + "-" +
                                     std::to_string(bound) + "/" +
                                     options_digest;

    fs::remove_all("replay-store");
    std::unique_ptr<store::SuiteStore> suite_store;
    {
        auto span = tracer.span("store.open");
        suite_store = std::make_unique<store::SuiteStore>("replay-store");
    }
    {
        auto span = tracer.span("store.get");
        suite_store->get(manifest_key);
    }
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        for (int size = min_size; size <= bound; size++) {
            std::string key = shard_key(ai, size);
            auto span = tracer.span("store.get");
            suite_store->get(key);
        }
    }

    std::vector<std::vector<synth::ShardResult>> shards(axioms.size());
    for (int size = min_size; size <= bound; size++) {
        std::unique_ptr<synth::BaseEncoding> encoding;
        {
            auto span = tracer.span("synth.base_encoding");
            encoding =
                std::make_unique<synth::BaseEncoding>(*model, size, options);
        }
        for (size_t ai = 0; ai < axioms.size(); ai++) {
            auto span = tracer.span("synth.shard");
            shards[ai].push_back(
                encoding->synthesizeShard(*model, axioms[ai], options));
        }
    }

    std::vector<synth::Suite> suites;
    std::string digest;
    {
        auto span = tracer.span("litmus.assemble");
        for (size_t ai = 0; ai < axioms.size(); ai++) {
            suites.push_back(synth::assembleShardSuite(*model, axioms[ai],
                                                       shards[ai], min_size));
        }
        suites.push_back(synth::unionSuites(suites, options));
        digest = litmus::suiteDigest(suites.back().tests);
    }

    std::string manifest = "manifest " + digest + "\n";
    for (size_t ai = 0; ai < axioms.size(); ai++) {
        for (int size = min_size; size <= bound; size++) {
            std::string key = shard_key(ai, size);
            manifest += key + "\n";
            std::string bytes =
                shardBytes(shards[ai][static_cast<size_t>(size - min_size)]);
            auto span = tracer.span("store.put");
            suite_store->put(key, bytes);
        }
    }
    {
        auto span = tracer.span("store.put");
        suite_store->put(manifest_key, manifest);
    }
    {
        auto span = tracer.span("store.flush");
        suite_store->flush();
    }

    store_stats = suite_store->stats();
    synth::SynthProgressSnapshot counters = progress.snapshot();
    const double tests = static_cast<double>(suites.back().tests.size());
    const double instances = static_cast<double>(counters.instances);
    metrics.num("synth.conflicts", counters.conflicts)
        .num("synth.restarts", counters.restarts)
        .num("synth.raw_instances", instances)
        .num("synth.tests", tests)
        .num("synth.tests_per_instance", instances ? tests / instances : 0)
        .num("synth.conflicts_per_instance",
             instances ? counters.conflicts / instances : 0);
    suite_store.reset();
    fs::remove_all("replay-store");

    synth::SuiteResult replayed;
    replayed.suites = std::move(suites);
    replayed.suiteDigest = digest;
    return outcomeJson(replayed);
}

/**
 * The base encoding split by layer, on separate solvers: formula
 * construction, relational encoding, SAT preprocessing, and symmetry
 * breaking — the steps BaseEncoding's constructor runs in one go.
 */
void
replaySplit(const std::string &model_name, int bound, Tracer &tracer,
            Json &metrics)
{
    std::unique_ptr<mm::Model> model = mm::makeModel(model_name);
    const synth::SynthOptions options = userOptions(bound);
    double vars = 0, clauses = 0, eliminated = 0, subsumed = 0, sbp = 0;
    for (int size = options.minSize; size <= bound; size++) {
        const size_t n = static_cast<size_t>(size);
        rel::FormulaPtr base;
        {
            auto span = tracer.span("rel.base_formula");
            base = synth::minimalityBase(*model, n);
        }
        std::unique_ptr<rel::RelSolver> solver;
        {
            auto span = tracer.span("rel.encode");
            solver = std::make_unique<rel::RelSolver>(model->vocab(), n);
            solver->addBaseFact(base);
        }
        vars += solver->satSolver().numVars();
        clauses += solver->satSolver().numClauses();
        {
            auto span = tracer.span("sat.simplify");
            solver->simplifyBase();
        }
        eliminated += static_cast<double>(
            solver->satSolver().stats().eliminatedVars);
        subsumed += static_cast<double>(
            solver->satSolver().stats().subsumedClauses);
        rel::SymmetryStats stats;
        {
            auto span = tracer.span("sbp.install");
            rel::SymmetrySpec spec = model->symmetrySpec(n);
            if (!spec.empty())
                solver->addSymmetryBreaking(spec, &stats);
        }
        sbp += static_cast<double>(stats.clauses);
    }
    metrics.num("rel.vars", vars)
        .num("rel.clauses", clauses)
        .num("sat.eliminated_vars", eliminated)
        .num("sat.subsumed_clauses", subsumed)
        .num("sbp.clauses", sbp);
}

/** Span totals reported under their own names, in seconds. */
void
spanMetrics(const Tracer &tracer, const std::vector<std::string> &names,
            Json &metrics)
{
    for (const auto &name : names)
        metrics.num(name + "_s", tracer.total(name));
}

// --- the restart path -------------------------------------------------------

/** An ltsd child process; stopped and reaped when the owner goes. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &store_dir)
        : socket(socket)
    {
        std::string socket_flag = "--socket=" + socket;
        std::string store_flag = "--store=" + store_dir;
        std::vector<char *> argv = {const_cast<char *>(binary.c_str()),
                                    socket_flag.data(), store_flag.data(),
                                    nullptr};
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         "/dev/null", O_WRONLY, 0);
        int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid = -1;
            throw std::runtime_error("cannot spawn " + binary + ": " +
                                     std::strerror(rc));
        }
        Timer waited;
        while (!synth::pingDaemon(socket)) {
            if (waited.seconds() > 60) {
                kill();
                throw std::runtime_error("ltsd did not answer a ping");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    ~Daemon() { kill(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Shut the daemon down cleanly; returns its peak RSS in MB. */
    double
    stop()
    {
        if (!synth::shutdownDaemon(socket)) {
            kill();
            throw std::runtime_error("ltsd did not acknowledge shutdown");
        }
        int status = 0;
        rusage usage{};
        ::wait4(pid, &status, 0, &usage);
        pid = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("ltsd did not shut down cleanly");
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

    const std::string socket;

  private:
    void
    kill()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            pid = -1;
        }
    }

    pid_t pid = -1;
};

/** One request/reply exchange, timed from connect to parsed reply. */
struct Reply
{
    std::string error;
    double latencyMs = 0;
    double parseSeconds = 0;
    size_t payloadBytes = 0;
    synth::SuiteResult result;
};

Reply
roundTrip(const std::string &socket, const synth::SuiteRequest &request)
{
    Reply reply;
    Timer timer;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", socket.c_str());
    // A reply that takes longer than this counts as a timeout.
    timeval limit{60, 0};
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit) != 0 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        reply.error = "connect failed";
    } else if (!store::writeFrame(fd, store::FrameType::Request,
                                  synth::serializeSuiteRequest(request))) {
        reply.error = "send failed";
    } else {
        store::Frame frame;
        bool done = false;
        while (!done && store::readFrame(fd, frame)) {
            if (frame.type == store::FrameType::Progress)
                continue;
            done = true;
            if (frame.type != store::FrameType::Result) {
                reply.error = "server error: " + frame.payload;
                break;
            }
            reply.payloadBytes = frame.payload.size();
            Timer parse;
            try {
                reply.result = synth::parseSuiteResult(frame.payload);
            } catch (const std::exception &e) {
                reply.error = std::string("bad reply: ") + e.what();
            }
            reply.parseSeconds = parse.seconds();
        }
        if (!done)
            reply.error = "timeout or connection closed";
    }
    if (fd >= 0)
        ::close(fd);
    reply.latencyMs = timer.milliseconds();
    return reply;
}

/** Outcome of one reply: its error, or the union digest and sizes. */
std::string
replyOutcome(const Reply &reply)
{
    if (!reply.error.empty())
        return Json().str("error", reply.error).text();
    return outcomeJson(reply.result);
}


/**
 * The restart path of a traced run, on the store the untraced query
 * wrote: the store read back in process, every record from disk and then
 * again from the cache; then, when @p ltsd is set, a daemon restarted on
 * it and asked the same query twice, a store hit and then a resident
 * hit, for the wire and daemon layers. Returns the replies' outcomes.
 */
std::vector<std::string>
replayRestart(const std::string &store_dir, const synth::SuiteRequest &request,
              const std::string &ltsd, Tracer &tracer,
              store::StoreStats &read_stats, Json &metrics)
{
    {
        std::unique_ptr<store::SuiteStore> suite_store;
        {
            auto span = tracer.span("store.open");
            suite_store = std::make_unique<store::SuiteStore>(store_dir);
        }
        std::vector<std::string> keys = suite_store->keys();
        std::sort(keys.begin(), keys.end());
        for (int pass = 0; pass < 2; pass++) {
            for (const auto &key : keys) {
                auto span = tracer.span("store.get");
                suite_store->get(key);
            }
        }
        read_stats = suite_store->stats();
    }

    std::vector<std::string> outcomes;
    double payload = 0, parse = 0, server = 0, overhead_ms = 0;
    if (!ltsd.empty()) {
        std::unique_ptr<Daemon> daemon;
        {
            auto span = tracer.span("daemon.start");
            daemon = std::make_unique<Daemon>(ltsd, "ltsd-trace", store_dir);
        }
        std::vector<Reply> replies;
        for (const char *name : {"daemon.store_hit", "daemon.resident_hit"}) {
            auto span = tracer.span(name);
            replies.push_back(roundTrip(daemon->socket, request));
        }
        {
            auto span = tracer.span("daemon.stop");
            daemon->stop();
        }
        for (const auto &reply : replies) {
            outcomes.push_back(replyOutcome(reply));
            payload += static_cast<double>(reply.payloadBytes);
            parse += reply.parseSeconds;
            server += reply.result.seconds;
            overhead_ms += reply.latencyMs - reply.result.seconds * 1e3;
            if (reply.error.empty()) {
                auto span = tracer.span("wire.serialize");
                synth::serializeSuiteResult(reply.result);
            }
        }
    }
    metrics.num("wire.payload_bytes", payload)
        .num("wire.serialize_s", tracer.total("wire.serialize"))
        .num("wire.parse_s", parse)
        .num("daemon.server_s", server)
        .num("daemon.overhead_ms", overhead_ms);
    return outcomes;
}


/**
 * Traced run of a cold workload: one untraced Service::query for the
 * reference wall time and digest, then the traced replay, the split and
 * the restart path on the query's store (with --restart 1, through the
 * ltsd at --ltsd). trace.overhead_s is replay wall minus query wall, so
 * besides the span bookkeeping it holds the difference between the
 * service's one-shot engine run and the replay's per-size encoding sweep.
 */
int
runTrace(const Args &args)
{
    const std::string model_name = args.str("model");
    const int bound = static_cast<int>(args.num("bound"));
    const synth::SuiteRequest request{model_name, bound, userOptions(bound),
                                      ""};

    double untraced_wall = 0;
    std::string untraced;
    ColdSetup setup = coldSetup(model_name);
    {
        Timer timer;
        synth::SuiteResult result =
            setup.service->query(*setup.model, request);
        untraced_wall = timer.seconds();
        untraced = outcomeJson(result);
        setup.service.reset();
    }

    Json metrics;
    Tracer tracer;
    store::StoreStats write_stats;
    Timer replay_timer;
    std::string replayed =
        replayCold(model_name, bound, tracer, write_stats, metrics);
    const double replay_wall = replay_timer.seconds();
    const double accounted = tracer.topLevel();

    Tracer split;
    replaySplit(model_name, bound, split, metrics);

    Tracer restart;
    store::StoreStats read_stats;
    std::vector<std::string> restarted = replayRestart(
        setup.storeDir, request,
        args.num("restart") != 0 ? args.str("ltsd") : "", restart,
        read_stats, metrics);
    fs::remove_all(setup.storeDir);

    spanMetrics(tracer,
                {"mm.make_model", "mm.model_digest", "key.base_digest",
                 "key.violation_digest", "key.options_digest", "store.put",
                 "store.flush", "synth.base_encoding", "synth.shard",
                 "litmus.assemble"},
                metrics);
    for (const std::string name : {"store.open", "store.get"})
        metrics.num(name + "_s", tracer.total(name) + restart.total(name));
    metrics.num("store.bytes_written", write_stats.fileBytes)
        .num("store.cache_hits", write_stats.cacheHits + read_stats.cacheHits)
        .num("store.cache_misses",
             write_stats.cacheMisses + read_stats.cacheMisses);
    spanMetrics(split,
                {"rel.base_formula", "rel.encode", "sat.simplify",
                 "sbp.install"},
                metrics);
    const double keying =
        tracer.total("mm.model_digest") + tracer.total("key.base_digest") +
        tracer.total("key.violation_digest") +
        tracer.total("key.options_digest");
    metrics.num("trace.unaccounted_s", replay_wall - accounted)
        .num("trace.overhead_s", replay_wall - untraced_wall)
        .num("trace.keying_frac", keying / replay_wall)
        .num("trace.enumeration_frac",
             tracer.total("synth.shard") / replay_wall);

    tracer.write("spans.jsonl");
    split.write("spans-split.jsonl");
    restart.write("spans-restart.jsonl");
    const double split_sum =
        split.total("rel.base_formula") + split.total("rel.encode") +
        split.total("sat.simplify") + split.total("sbp.install");
    std::printf("%s\n",
                Json()
                    .raw("untraced", untraced)
                    .raw("replayed", replayed)
                    .raw("restarted", "[" + joined(restarted) + "]")
                    .num("untraced_wall_s", untraced_wall)
                    .num("replay_wall_s", replay_wall)
                    .num("split_sum_s", split_sum)
                    .num("base_encoding_s",
                         tracer.total("synth.base_encoding"))
                    .raw("metrics", metrics.text())
                    .text()
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench-measure "
                     "setup|cold|trace ...\n");
        return 2;
    }
    try {
        const Args args(argc, argv);
        const std::string mode = argv[1];
        if (mode == "setup")
            return runSetup(args);
        if (mode == "cold")
            return runCold(args);
        if (mode == "trace")
            return runTrace(args);
        std::fprintf(stderr, "perfbench-measure: unknown mode %s\n",
                     mode.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-measure: %s\n", e.what());
    }
    return 1;
}
