# --threads is the partition width of both sweep executors, so a checkpoint
# `ritcs --mode=run` writes under --supervised resumes in process at the
# same --threads, and the reverse. The resumed run serves the completed
# point from the checkpoint, so it prints the same aggregate rows.
#
#   cmake -DRITCS=<ritcs executable> -DWORK_DIR=<scratch dir>
#         -P ritcs_threads_width.cmake
foreach(var RITCS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
# Four trials: at the hardware-concurrency default the width would be
# min(cores, 4), so only --threads pins it to 2.
set(pinned --mode=run --trials=4 --threads=2 --users=300 --tasks=20
    --seed=5)

function(run_ritcs label)
  execute_process(
    COMMAND ${RITCS} ${pinned} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${WORK_DIR}/${label}.out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} run of ritcs failed (${rc}): ${err}")
  endif()
endfunction()

function(expect_same_rows a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${WORK_DIR}/${a}.out ${WORK_DIR}/${b}.out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed run printed other rows: "
      "${WORK_DIR}/${a}.out vs ${WORK_DIR}/${b}.out")
  endif()
endfunction()

run_ritcs(supervised_write --supervised
  --checkpoint=${WORK_DIR}/supervised.ckpt)
run_ritcs(in_process_resume --resume
  --checkpoint=${WORK_DIR}/supervised.ckpt)
expect_same_rows(supervised_write in_process_resume)

run_ritcs(in_process_write --checkpoint=${WORK_DIR}/in_process.ckpt)
run_ritcs(supervised_resume --supervised --resume
  --checkpoint=${WORK_DIR}/in_process.ckpt)
expect_same_rows(in_process_write supervised_resume)
