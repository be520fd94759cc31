# Runs one figure bench three times at a pinned seed and --threads=2: with
# no robustness flags, with --checkpoint and --max-trial-failures, and
# --supervised. The first two go through the same guarded sweep engine,
# and the forked shard supervisor partitions by the same --threads width,
# so on a clean run all three CSVs must be byte-identical.
#
#   cmake -DBENCH=<bench executable> -DWORK_DIR=<scratch dir>
#         -P bench_flags_identical.cmake
foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(pinned --trials=4 --points=3 --scale=20 --seed=17 --threads=2
    --json=none)

function(run_bench label)
  execute_process(
    COMMAND ${BENCH} ${pinned} --csv=${WORK_DIR}/${label}.csv ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} run of ${BENCH} failed: ${rc}")
  endif()
endfunction()

run_bench(plain)
run_bench(flags --checkpoint=${WORK_DIR}/sweep.ckpt --max-trial-failures=1)
run_bench(supervised --supervised)

foreach(label flags supervised)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${WORK_DIR}/plain.csv ${WORK_DIR}/${label}.csv
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} run changed the CSV: "
      "${WORK_DIR}/plain.csv vs ${WORK_DIR}/${label}.csv")
  endif()
endforeach()
