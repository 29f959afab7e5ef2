# Producer -> consumer check for the telemetry schema: `spatl train
# --metrics-out` feeds `spatl_report`, and the report's participation block
# must equal the CLI's own `participation:` and `retry path:` lines. A
# round-record field the report no longer finds would otherwise fold as
# silent zeros. TRAIN_ARGS (optional, one space-separated string) replaces
# the default faulty flags; a run that prints no `participation:` line (a
# clean run) must instead report every selected client as accepted.
#
#   cmake -DSPATL=<spatl binary> -DREPORT=<spatl_report binary> \
#         -DWORK_DIR=<scratch dir> [-DTRAIN_ARGS="..."] \
#         -P tools/cli_metrics_report.cmake
foreach(var SPATL REPORT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_metrics_report: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(jsonl "${WORK_DIR}/m.jsonl")
set(report "${WORK_DIR}/r.json")
if(DEFINED TRAIN_ARGS)
  separate_arguments(extra_args UNIX_COMMAND "${TRAIN_ARGS}")
else()
  set(extra_args --fault-dropout 0.3 --fault-loss 0.2)
endif()

function(run_checked out_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_checked(train_out "${SPATL}" train --arch cnn2 --input 8 --clients 4
            --rounds 4 --backend scalar ${extra_args}
            --metrics-out "${jsonl}")
run_checked(report_out "${REPORT}" --jsonl "${jsonl}" --out-json "${report}")
file(READ "${report}" report_json)
string(JSON unknown GET "${report_json}" unknown_records)
if(NOT unknown EQUAL 0)
  message(FATAL_ERROR "report saw ${unknown} unknown record(s):\n"
                      "${report_json}")
endif()

if(DEFINED TRAIN_ARGS AND NOT train_out MATCHES "participation:")
  string(JSON selected GET "${report_json}" participation selected)
  string(JSON accepted GET "${report_json}" participation accepted)
  if(selected EQUAL 0 OR NOT accepted EQUAL selected)
    message(FATAL_ERROR "clean run: report participation accepted = "
                        "${accepted}, selected = ${selected}:\n"
                        "${report_json}")
  endif()
  file(REMOVE_RECURSE "${WORK_DIR}")
  message(STATUS "clean run: report accepts all ${selected} selected")
  return()
endif()

if(NOT train_out MATCHES
   "participation: ([0-9]+) selected, ([0-9]+) accepted, ([0-9]+) dropped, [0-9]+ stragglers, ([0-9]+) rejected")
  message(FATAL_ERROR "no participation line in:\n${train_out}")
endif()
set(want_selected ${CMAKE_MATCH_1})
set(want_accepted ${CMAKE_MATCH_2})
set(want_dropped ${CMAKE_MATCH_3})
set(want_rejected ${CMAKE_MATCH_4})
if(NOT train_out MATCHES "retry path: ([0-9]+) retransmissions")
  message(FATAL_ERROR "no retry path line in:\n${train_out}")
endif()
set(want_retransmissions ${CMAKE_MATCH_1})
# A field the report stops finding folds as zero, so the run must make the
# checked totals non-zero (the lossy links' retries all succeed here, so
# `rejected` is zero on both sides).
foreach(field selected accepted dropped retransmissions)
  if(want_${field} EQUAL 0)
    message(FATAL_ERROR "the run must report ${field} > 0:\n${train_out}")
  endif()
endforeach()

foreach(field selected accepted dropped rejected retransmissions)
  string(JSON got GET "${report_json}" participation ${field})
  if(NOT got EQUAL want_${field})
    message(FATAL_ERROR "report participation.${field} = ${got}, CLI says "
                        "${want_${field}}:\n${train_out}\n${report_json}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "report participation matches the CLI: ${want_selected} "
               "selected, ${want_accepted} accepted, ${want_dropped} "
               "dropped, ${want_rejected} rejected, ${want_retransmissions} "
               "retransmissions")
