/**
 * @file
 * The shared command-line surface for synth::SynthOptions.
 *
 * Every SynthOptions knob but progress and the retired incremental has
 * exactly one --flag, declared from one table (synthFlagSpecs) so
 * ltsgen and the bench binaries agree on names, defaults, and --help
 * text. Binaries declare the table, parse,
 * then build a SynthOptions with synthOptionsFromFlags; re-declaring a
 * flag after declareAll overrides its default for that binary.
 */

#ifndef LTS_SYNTH_OPTIONS_HH
#define LTS_SYNTH_OPTIONS_HH

#include "common/flags.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{

/** The flag table: one row per SynthOptions knob. */
const std::vector<FlagSpec> &synthFlagSpecs();

/** Declare every synthesis flag into the registry. */
void declareSynthFlags(Flags &flags);

/**
 * Build a SynthOptions from parsed flags (progress is left null).
 * Throws std::invalid_argument on an unrecognized --canon value.
 */
SynthOptions synthOptionsFromFlags(const Flags &flags);

} // namespace lts::synth

#endif // LTS_SYNTH_OPTIONS_HH
