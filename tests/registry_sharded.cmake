# The whole registry runs sharded: every experiment at engine.threads = 2
# exits 0 and writes its document. The two instrumented experiments
# (ablation_ectn_overhead, congestion_map) run on one shard and say so.
#
#   cmake -DDFSIM_RUN=build/dfsim_run -DWORK_DIR=build/registry_sharded \
#         -P tests/registry_sharded.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(
  COMMAND "${DFSIM_RUN}" run --experiments=all --scale=tiny --warmup=100
          --measure=200 --set=engine.threads=2 --quiet --out=${WORK_DIR}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(STATUS "${err}")
  message(FATAL_ERROR "the sharded registry run exited ${rc}")
endif()
file(GLOB docs "${WORK_DIR}/*.json")
list(LENGTH docs count)
if(NOT count EQUAL 21)
  message(FATAL_ERROR "the sharded registry run wrote ${count} documents, not 21")
endif()
message(STATUS "${count} documents at engine.threads = 2")
