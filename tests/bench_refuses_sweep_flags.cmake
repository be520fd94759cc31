# Runs a bench whose trials bypass the sweep engine with sweep flags it
# cannot honour: it must refuse them with the usage-error status 2 and
# write nothing, neither the checkpoint nor any output.
#
#   cmake -DBENCH=<bench executable> -DWORK_DIR=<scratch dir>
#         -P bench_refuses_sweep_flags.cmake
foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${BENCH} --supervised --checkpoint=x.ckpt --trials=1 --scale=50
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} exited with '${rc}', not 2: ${err}")
endif()
file(GLOB_RECURSE written ${WORK_DIR}/*)
if(written)
  message(FATAL_ERROR "${BENCH} refused its flags but wrote: ${written}")
endif()
