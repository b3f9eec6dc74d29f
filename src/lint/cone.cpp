// Cone-of-influence notes: surface in `rtv lint` what `rtv slice` would
// drop.  Notes, not warnings — an out-of-cone module is wasteful, never
// wrong, and the suite's slicer removes the waste automatically.
#include <string>

#include "checks.hpp"

namespace rtv::lint {

void check_cone(CheckContext& ctx) {
  // Without properties there is no cone to be outside of — every module
  // would trivially qualify, which is noise, not a finding.
  if (ctx.modules.empty() || ctx.properties.empty()) return;

  // The slice is the front end's (rtv/verify/suite.hpp), cut under the
  // obligation's own track_chokes, so the notes name exactly what the
  // engines will not see.
  const analysis::SliceResult& sl = *ctx.slice;
  if (!sl.bailout.empty()) return;

  for (const analysis::SliceNote& note : sl.notes) {
    if (note.kind == "module" && !note.module.empty()) {
      ctx.emit(check::kOutsideCone, Severity::kNote, note.module, "",
               "module is outside every property's cone of influence — "
               "the suite's slicer drops it before any engine runs (" +
                   note.reason + ")");
    } else if (note.kind == "states") {
      ctx.emit(check::kSliceUnreachable, Severity::kNote, note.module,
               note.object,
               note.object +
                   " state(s) and their transitions are statically "
                   "unreachable — the suite's slicer prunes them before "
                   "any engine runs");
    }
  }
}

}  // namespace rtv::lint
