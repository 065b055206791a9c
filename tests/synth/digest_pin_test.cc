/**
 * @file
 * Pinned suite digests: every per-axiom and union suite synthesizeAll
 * emits for every registered model, plus synthesizeAxiom and
 * synthesizeUnionDirect, must hash to the lts-suite-v1 digests recorded
 * below. The values were taken when two byte-identical engines still
 * cross-checked each other (a shared solver per size vs a private
 * solver per (axiom, size)); with one engine left, these pins are the
 * reference that keeps its output fixed. A changed digest means the
 * suite bytes changed, which is almost always a bug.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "litmus/digest.hh"
#include "mm/registry.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

struct Pin
{
    const char *model;
    int maxSize;
    const char *axiom; ///< suite label: an axiom name or "union"
    const char *digest;
};

const std::vector<Pin> kPins = {
    {"sc", 4, "sequential_consistency", "lts-suite-v1:39e412a53dd9df30"},
    {"sc", 4, "rmw_atomicity", "lts-suite-v1:60e854570922e13b"},
    {"sc", 4, "union", "lts-suite-v1:0ee59415e00dd4b7"},
    {"tso", 4, "sc_per_loc", "lts-suite-v1:eedbaef9cd4d08dd"},
    {"tso", 4, "rmw_atomicity", "lts-suite-v1:60e854570922e13b"},
    {"tso", 4, "causality", "lts-suite-v1:80ca7c31fe6ddf0f"},
    {"tso", 4, "union", "lts-suite-v1:18e1f49b77f081de"},
    {"power", 3, "sc_per_loc", "lts-suite-v1:eedbaef9cd4d08dd"},
    {"power", 3, "no_thin_air", "lts-suite-v1:9e3779b97f4a7c15"},
    {"power", 3, "observation", "lts-suite-v1:9e3779b97f4a7c15"},
    {"power", 3, "propagation", "lts-suite-v1:9e3779b97f4a7c15"},
    {"power", 3, "union", "lts-suite-v1:eedbaef9cd4d08dd"},
    {"armv7", 3, "sc_per_loc", "lts-suite-v1:eedbaef9cd4d08dd"},
    {"armv7", 3, "no_thin_air", "lts-suite-v1:9e3779b97f4a7c15"},
    {"armv7", 3, "observation", "lts-suite-v1:9e3779b97f4a7c15"},
    {"armv7", 3, "propagation", "lts-suite-v1:9e3779b97f4a7c15"},
    {"armv7", 3, "union", "lts-suite-v1:eedbaef9cd4d08dd"},
    {"scc", 4, "sc_per_loc", "lts-suite-v1:eedbaef9cd4d08dd"},
    {"scc", 4, "no_thin_air", "lts-suite-v1:e3b7d0561d3f7297"},
    {"scc", 4, "rmw_atomicity", "lts-suite-v1:60e854570922e13b"},
    {"scc", 4, "causality", "lts-suite-v1:f2d789706717f48c"},
    {"scc", 4, "union", "lts-suite-v1:0afc367db77ceaca"},
    {"sscc", 3, "sc_per_loc", "lts-suite-v1:adb1db3cc1a53aac"},
    {"sscc", 3, "no_thin_air", "lts-suite-v1:9e3779b97f4a7c15"},
    {"sscc", 3, "rmw_atomicity", "lts-suite-v1:48b8ea4cef9bf963"},
    {"sscc", 3, "causality", "lts-suite-v1:b59f8289df9589bf"},
    {"sscc", 3, "union", "lts-suite-v1:63ab3871933ad5c1"},
    {"c11", 4, "coherence", "lts-suite-v1:0d940f1a0a8135a8"},
    {"c11", 4, "rmw_atomicity", "lts-suite-v1:60e854570922e13b"},
    {"c11", 4, "seq_cst", "lts-suite-v1:e0af5a26682a3eba"},
    {"c11", 4, "union", "lts-suite-v1:38c3e99c945cfd87"},
};

/** Synthesize @p name at its pinned bound and check every suite. */
void
expectPinnedDigests(const std::string &name)
{
    std::vector<Pin> pins;
    for (const Pin &pin : kPins) {
        if (pin.model == name)
            pins.push_back(pin);
    }
    ASSERT_FALSE(pins.empty()) << "no pins for " << name;

    auto model = mm::makeModel(name);
    SynthOptions opt;
    opt.maxSize = pins.front().maxSize;
    std::vector<Suite> suites = synthesizeAll(*model, opt);
    ASSERT_EQ(suites.size(), pins.size()) << name;
    for (size_t i = 0; i < suites.size(); i++) {
        EXPECT_EQ(suites[i].axiom, pins[i].axiom) << name;
        EXPECT_EQ(litmus::suiteDigest(suites[i].tests), pins[i].digest)
            << name << "/" << pins[i].axiom << " at bound "
            << pins[i].maxSize;
    }
}

TEST(SuiteDigestPinTest, EveryRegistryModelIsPinned)
{
    for (const std::string &name : mm::modelNames()) {
        bool pinned = false;
        for (const Pin &pin : kPins)
            pinned = pinned || pin.model == name;
        EXPECT_TRUE(pinned) << name << " has no pinned digests";
    }
}

TEST(SuiteDigestPinTest, SccSuitesMatchPins)
{
    expectPinnedDigests("scc");
}

TEST(SuiteDigestPinTest, RestOfRegistryMatchesPins)
{
    for (const std::string &name : mm::modelNames()) {
        if (name != "scc")
            expectPinnedDigests(name);
    }
}

TEST(SuiteDigestPinTest, SingleAxiomAndUnionDirectMatchPins)
{
    auto tso = mm::makeModel("tso");
    SynthOptions opt;
    opt.maxSize = 4;
    Suite causality = synthesizeAxiom(*tso, "causality", opt);
    EXPECT_EQ(litmus::suiteDigest(causality.tests),
              "lts-suite-v1:80ca7c31fe6ddf0f");
    Suite direct = synthesizeUnionDirect(*tso, opt);
    EXPECT_EQ(litmus::suiteDigest(direct.tests),
              "lts-suite-v1:6fd04f94eab971a9");
}

} // namespace
} // namespace lts::synth
