/**
 * @file
 * scalehls-smith's seeded kernel generator: random affine kernels and
 * dataflow-graph modules in the style of mlir-dace-smith — nested bands
 * with varied depths/bounds, local buffers covering every
 * buffer-ownership class the ownership analysis distinguishes
 * (BandLocal / DataflowEdge / MultiConsumer / SharedChain / Dead /
 * Escaping), calls, mixed-precision ops, and directive-bearing as well
 * as pristine variants. Generation is a pure function of
 * (config, sample seed): the same pair always reproduces the same
 * module bit-for-bit, which is what makes oracle reproducer files
 * replayable. Every sample is passed through the L1/L2 verifier at
 * birth.
 */

#ifndef SCALEHLS_SMITH_GENERATOR_H
#define SCALEHLS_SMITH_GENERATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace scalehls {

/** Knobs bounding the generated kernels. All fields are serialized into
 * reproducer files — a generated sample is a pure function of
 * (config, seed). */
struct SmithGenConfig
{
    int maxBands = 3;    ///< Top-level bands per kernel (>= 1).
    int maxDepth = 3;    ///< Deepest generated loop nest (1..3).
    /** Emit pre-set loop/function directives on some samples (the
     * "directive-bearing" variants; pristine otherwise). */
    bool allowDirectives = true;
    /** Mark eligible multi-band kernels as dataflow tops. */
    bool allowDataflowTop = true;
    /** Generate Escaping buffers (a call consuming a local buffer). */
    bool allowCalls = true;
    /** Insert never-accessed allocs (the Dead ownership class). */
    bool allowDeadAllocs = true;
};

/** One generated sample: the affine-level module plus everything needed
 * to reproduce and report it. */
struct SmithSample
{
    uint64_t seed = 0;      ///< The per-sample seed.
    SmithGenConfig config;  ///< The config it was generated under.
    std::string source;     ///< The generated HLS C.
    /** Shape label for reporting: the ownership scenario and the
     * applied decorations (e.g. "DataflowEdge+dataflow-top"). */
    std::string shape;
    /** The affine-level, decorated module (L1/L2-verified at birth). */
    std::unique_ptr<Operation> module;
    std::string printed;    ///< printOp(module) at birth.
};

/** Generate the sample of @p sample_seed under @p config. The result is
 * deterministic and verifier-clean; a sample failing the L1/L2 verifier
 * at birth is a generator bug and raises FatalError (with the seed in
 * the message so it can be pinned as a regression). */
SmithSample generateSmithSample(const SmithGenConfig &config,
                                uint64_t sample_seed);

} // namespace scalehls

#endif // SCALEHLS_SMITH_GENERATOR_H
