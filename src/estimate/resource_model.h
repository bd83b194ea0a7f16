/**
 * @file
 * The FPGA resource model: per-operator latency/resource profiles
 * calibrated to Vivado HLS floating-point cores, device budgets for the
 * paper's two platforms, and resource usage accounting.
 */

#ifndef SCALEHLS_ESTIMATE_RESOURCE_MODEL_H
#define SCALEHLS_ESTIMATE_RESOURCE_MODEL_H

#include <cstdint>
#include <optional>
#include <string>

#include "ir/ir.h"

namespace scalehls {

/** Latency / initiation interval / resource cost of one operator
 * instance. */
struct OpProfile
{
    int latency = 0; ///< Cycles from operand availability to result.
    int ii = 1;      ///< Cycles between successive inputs of one instance.
    int dsp = 0;
    int lut = 0;
};

/** Profile of an operation (by name and operand bit width). Memory access
 * profiles model BRAM reads (1-cycle address, 1-cycle data) and writes. */
OpProfile opProfile(const Operation *op);

/** True if the op consumes a schedulable functional unit (arith/math). */
bool isComputeOp(const Operation *op);

/** Resource usage of a design (or part of one). */
struct ResourceUsage
{
    int64_t dsp = 0;
    int64_t lut = 0;
    int64_t bram18k = 0;
    int64_t memoryBits = 0;

    ResourceUsage &
    operator+=(const ResourceUsage &other)
    {
        dsp += other.dsp;
        lut += other.lut;
        bram18k += other.bram18k;
        memoryBits += other.memoryBits;
        return *this;
    }

    bool
    operator==(const ResourceUsage &other) const
    {
        return dsp == other.dsp && lut == other.lut &&
               bram18k == other.bram18k && memoryBits == other.memoryBits;
    }
};

/** A device resource budget. */
struct ResourceBudget
{
    std::string name;
    int64_t dsp = 0;
    int64_t lut = 0;
    int64_t memoryBits = 0; ///< On-chip memory capacity.

    bool
    fits(const ResourceUsage &usage) const
    {
        return usage.dsp <= dsp && usage.lut <= lut &&
               usage.memoryBits <= memoryBits;
    }
};

/** Xilinx XC7Z020 (edge platform of Table III): 4.9 Mb BRAM, 220 DSP,
 * 53,200 LUT. */
ResourceBudget xc7z020();

/** One SLR of a Xilinx VU9P (platform of Table V): 115.3 Mb, 2,280 DSP,
 * 394,080 LUT. */
ResourceBudget vu9pSlr();

/** Parse a device budget spec: the named profiles "xc7z020" and
 * "vu9p-slr", or a custom "dsp:lut:bram18k" triple (non-negative
 * integers; the BRAM18K count converts to memoryBits at 18 Kb per
 * block). Returns nullopt on malformed specs. */
std::optional<ResourceBudget> parseResourceBudget(const std::string &spec);

/** BRAM/bit usage of one memref value under its partition layout. Each
 * bank is at least one BRAM18K once it exceeds the LUTRAM threshold. */
ResourceUsage memrefResource(Type memref_type);

} // namespace scalehls

#endif // SCALEHLS_ESTIMATE_RESOURCE_MODEL_H
