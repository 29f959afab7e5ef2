# Cross-process resume through the durable checkpoint store: a 4-round
# `spatl train` split into two processes that share one --ckpt-dir must print
# the same round-4 line and the same final summary as the straight run.
# TRAIN_ARGS (optional, one space-separated string) adds train flags to all
# three runs, so stateful algorithms carry their state across the process
# boundary.
#
#   cmake -DSPATL=<spatl binary> -DWORK_DIR=<scratch dir> \
#         [-DTRAIN_ARGS="--algo scaffold ..."] -P tools/cli_store_resume.cmake
foreach(var SPATL WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_store_resume: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ckpt_dir "${WORK_DIR}/ckpts")
separate_arguments(extra_args UNIX_COMMAND "${TRAIN_ARGS}")
set(train_args train --arch cnn2 --input 8 --clients 4 --backend scalar
               ${extra_args})

function(run_train out_var)
  execute_process(COMMAND "${SPATL}" ${train_args} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "spatl ${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The round-4 line and the `final ... (best ...)` summary line.
function(key_lines text out_var)
  string(REGEX MATCH "round +4 [^\n]*" round4 "${text}")
  string(REGEX MATCH "[^\n]*: final [^\n]*" final "${text}")
  if(round4 STREQUAL "" OR final STREQUAL "")
    message(FATAL_ERROR "no round-4 or final line in:\n${text}")
  endif()
  set(${out_var} "${round4}\n${final}" PARENT_SCOPE)
endfunction()

run_train(straight --rounds 4)
run_train(first_leg --rounds 2 --checkpoint-every 2 --ckpt-dir "${ckpt_dir}")
run_train(second_leg --rounds 4 --ckpt-dir "${ckpt_dir}")

if(second_leg MATCHES "round +1 ")
  message(FATAL_ERROR "second leg replayed round 1 instead of resuming:\n"
                      "${second_leg}")
endif()
key_lines("${straight}" want)
key_lines("${second_leg}" got)
if(NOT want STREQUAL got)
  message(FATAL_ERROR "resumed run diverged from the straight run:\n"
                      "straight:\n${want}\nresumed:\n${got}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cross-process resume matches:\n${got}")
