/**
 * @file
 * Fetch stage: one instruction line (fetchWidth instructions) from
 * one warp per cycle (paper section 2.1), replay queue first, with
 * the scheme's fetch barriers (SchemePolicy::fetchBarrier) stopping a
 * line mid-way.
 */

#ifndef GEX_SM_STAGES_FETCH_HPP
#define GEX_SM_STAGES_FETCH_HPP

#include "sm/pipeline.hpp"

namespace gex::sm {

class FetchStage
{
  public:
    explicit FetchStage(PipelineState &st) : st_(st) {}

    void tick(Cycle now);

  private:
    /** Fetch up to one line for warp @p w; true if anything was
     *  fetched (otherwise the warp may be marked fetchBlocked). */
    bool fetchWarp(int w, Cycle now);

    PipelineState &st_;
};

} // namespace gex::sm

#endif // GEX_SM_STAGES_FETCH_HPP
