/**
 * @file
 * Issue stage: scoreboarded 2-wide in-order issue from up to two
 * warps per cycle (paper section 2.1). Admission runs the
 * operand-collect readiness checks, the structural gates (LSU slot
 * and queue depth, backend unit ports) and the operand-log space
 * reservation (SchemePolicy::logAdmission), then acquires scoreboard
 * entries and schedules the instruction's lifecycle events.
 */

#ifndef GEX_SM_STAGES_ISSUE_HPP
#define GEX_SM_STAGES_ISSUE_HPP

#include "sm/pipeline.hpp"

namespace gex::sm {

class IssueStage
{
  public:
    explicit IssueStage(PipelineState &st) : st_(st) {}

    void tick(Cycle now);

  private:
    /** Issue from warp @p w until it stalls or the cycle's slots run
     *  out (@p total counts them); returns the instructions issued. */
    int issueWarp(int w, Cycle now, int &total);
    bool tryIssueHead(int w, Cycle now);

    PipelineState &st_;
};

} // namespace gex::sm

#endif // GEX_SM_STAGES_ISSUE_HPP
