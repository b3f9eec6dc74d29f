#include "rtv/ipcmos/pipeline.hpp"

namespace rtv::ipcmos {

Module make_stage(int k, const PipelineTiming& t) {
  return stage_module(std::string("I").append(std::to_string(k)),
                      linear_channels(k), t.stage);
}

Module make_in_env(const PipelineTiming& t) {
  return stg_library::in_module("V1", "A1", t.env);
}

Module make_out_env(int n_stages, const PipelineTiming& t) {
  const std::string b = std::to_string(n_stages + 1);
  return stg_library::out_module("V" + b, "A" + b, t.env);
}

Module make_ain(int boundary) {
  const std::string b = std::to_string(boundary);
  return stg_library::ain_module("V" + b, "A" + b);
}

Module make_aout(int boundary) {
  const std::string b = std::to_string(boundary);
  return stg_library::aout_module("V" + b, "A" + b);
}

ModuleSet flat_pipeline(int n_stages, const PipelineTiming& t) {
  ModuleSet set;
  set.add(make_in_env(t));
  for (int k = 1; k <= n_stages; ++k) set.add(make_stage(k, t));
  set.add(make_out_env(n_stages, t));
  return set;
}

}  // namespace rtv::ipcmos
