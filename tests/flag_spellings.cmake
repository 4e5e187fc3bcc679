# Runs fig5a at tiny scale choosing ADV+1 traffic three ways: a flag
# (--traffic=ADV), an inline override (--set=traffic.kind=ADV) and a config
# file. The three JSON documents must be byte-identical and differ from a
# run without the override: every spelling of a key is a user setting that
# the figure's own default pattern (UN) must not override.
#
#   cmake -DDFSIM_RUN=build/dfsim_run -DWORK_DIR=build/flag_spellings \
#         -P tests/flag_spellings.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/adv.ini" "[traffic]\nkind = ADV\n")

set(common run --experiments=fig5a --scale=tiny --warmup=200 --measure=300
    --loads=0.3 --routings=MIN --quiet --strip-rev)
foreach(spelling IN ITEMS default flag set config)
  if(spelling STREQUAL "default")
    set(extra "")
  elseif(spelling STREQUAL "flag")
    set(extra --traffic=ADV)
  elseif(spelling STREQUAL "set")
    set(extra --set=traffic.kind=ADV)
  else()
    set(extra --config=${WORK_DIR}/adv.ini)
  endif()
  execute_process(
    COMMAND "${DFSIM_RUN}" ${common} ${extra} --out=${WORK_DIR}/${spelling}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dfsim_run (${spelling}) exited ${rc}")
  endif()
  file(READ "${WORK_DIR}/${spelling}/fig5a.json" doc_${spelling})
endforeach()

if(doc_flag STREQUAL doc_default)
  message(FATAL_ERROR "--traffic=ADV ran the default pattern")
endif()
foreach(spelling IN ITEMS set config)
  if(NOT doc_${spelling} STREQUAL doc_flag)
    message(FATAL_ERROR
      "fig5a JSON differs between --traffic=ADV and the ${spelling} spelling")
  endif()
endforeach()
message(STATUS "fig5a JSON identical across --traffic, --set and --config")
