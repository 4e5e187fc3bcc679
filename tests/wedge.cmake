# A wedged network must fail loudly. ADV+1 under MIN with every global link
# dead delivers no packet, ever: `observe` and the congestion_map experiment
# must each exit 2 with an error naming the stall (the first full
# 50,000-cycle watchdog window after the 300-cycle warmup), and `observe`
# must write no heatmap for the stalled run.
#
#   cmake -DDFSIM_RUN=build/dfsim_run -DWORK_DIR=build/wedge \
#         -P tests/wedge.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/wedge.ini"
  "[fault]\nenabled = 1\nlink_fail_fraction = 1.0\nlink_class = global\n")

set(common --scale=tiny --warmup=300 --measure=60000 --traffic=ADV
    --config=${WORK_DIR}/wedge.ini)
foreach(command IN ITEMS observe congestion_map)
  if(command STREQUAL "observe")
    set(args observe --routing=MIN --out=${WORK_DIR}/observe)
    set(expect "observe: stalled at cycle 50300")
  else()
    set(args run --experiments=congestion_map --routings=MIN --quiet)
    set(expect "congestion_map: series MIN: stalled at cycle 50300")
  endif()
  execute_process(COMMAND "${DFSIM_RUN}" ${args} ${common}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${command} on the wedge exited ${rc}, not 2: ${err}")
  endif()
  if(NOT err MATCHES "error: ${expect}: no packet delivered")
    message(FATAL_ERROR "${command} on the wedge did not name the stall: ${err}")
  endif()
  message(STATUS "${command}: ${err}")
endforeach()
if(EXISTS "${WORK_DIR}/observe/congestion_heatmap.json")
  message(FATAL_ERROR "observe wrote a heatmap for the stalled run")
endif()
