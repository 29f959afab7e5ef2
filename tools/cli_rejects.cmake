# The CLI refuses every flag it would otherwise ignore and every malformed
# value: each command below must exit with status exactly 1 and print an
# `error:` line matching its pattern, which names the enabler or the bad
# value. A crash or a hang fails the check (a bare WILL_FAIL test would pass
# a crash).
#
#   cmake -DSPATL=<spatl binary> -DWORK_DIR=<scratch dir> \
#         -P tools/cli_rejects.cmake
#
# With -DCASE_PATTERN=<regex> -DCASE_ARGS="<spatl arguments>" it checks that
# one command instead of the table below. Commands run in WORK_DIR, so a
# command the CLI wrongly accepts leaves its files there.
foreach(var SPATL WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_rejects: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ckpt_dir "${WORK_DIR}/ckpts")
set(train train --algo fedavg --arch cnn2 --input 8 --clients 2
          --backend scalar)
set(failures "")

# rejects(<stderr regex after "error: "> <spatl arguments>...)
function(rejects pattern)
  execute_process(COMMAND "${SPATL}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "error: ${pattern}")
    string(REPLACE ";" " " shown "${ARGN}")
    set(failures "${failures}\nspatl ${shown}\n  exit ${rc}, want 1; \
stderr: ${err}  want: error: ${pattern}\n" PARENT_SCOPE)
  endif()
endfunction()

if(DEFINED CASE_PATTERN)
  separate_arguments(case_args UNIX_COMMAND "${CASE_ARGS}")
  rejects("${CASE_PATTERN}" ${case_args})
  file(REMOVE_RECURSE "${WORK_DIR}")
  if(NOT failures STREQUAL "")
    message(FATAL_ERROR "command the CLI did not reject:${failures}")
  endif()
  return()
endif()

set(fault_model "needs a fault model")

# Unknown flags (--input-size and the removed --checkpoint-path and
# --crash-at have ctests of their own in tools/CMakeLists.txt).
rejects("unknown flag --rl-rounds" ${train} --rl-rounds 2)
rejects("unknown flag --budget" evaluate --ckpt x --budget 0.5)

# Deleted adaptive defences (EXPERIMENTS.md X8): Krum auto-f, aggregator
# escalation with its de-escalation, and fault-aware sampling.
rejects("unknown flag --krum-auto-f" ${train} --aggregator krum --krum-auto-f)
rejects("unknown flag --escalate" ${train} --escalate)
rejects("unknown flag --escalate-threshold" ${train}
        --escalate-threshold 0.5)
rejects("unknown flag --escalate-patience" ${train} --escalate-patience 3)
rejects("unknown flag --escalate-aggregator" ${train}
        --escalate-aggregator median)
rejects("unknown flag --escalate-reset-after" ${train}
        --escalate-reset-after 2)
rejects("unknown flag --fault-aware-sampling" ${train}
        --fault-dropout 0.2 --fault-aware-sampling)
rejects("unknown flag --fault-ema-decay" ${train} --fault-ema-decay 0.5)

# Uplink flags on an algorithm without an uplink (--fault-dropout has a
# ctest of its own in tools/CMakeLists.txt).
rejects("--async does not apply to --algo local-only"
        train --algo local-only --arch cnn2 --input 8 --clients 2
        --rounds 1 --async)

# Fault model: its sub-options act only on a configured fault model; a zero
# rate configures none.
rejects("--fault-seed ${fault_model}" ${train} --fault-seed 3)
rejects("--fault-deadline ${fault_model}" ${train} --fault-deadline 2)
rejects("--stale-weight ${fault_model}" ${train} --stale-weight 0.3)
rejects("--fault-seed ${fault_model}" ${train} --fault-dropout 0
        --byz-fraction 0 --fault-seed 3)
rejects("--fault-corruption-kind needs --fault-corruption > 0" ${train}
        --fault-dropout 0.2 --fault-corruption-kind inf)

# Rates out of [0, 1]: the runner range-checks the fault and churn configs
# on every run, not only when some rate is > 0.
set(rate "must be in \\[0, 1\\]")
rejects("FaultConfig: dropout_rate ${rate}" ${train} --fault-dropout -0.1)
rejects("FaultConfig: straggler_rate ${rate}" ${train}
        --fault-straggler -0.1)
rejects("FaultConfig: corruption_rate ${rate}" ${train}
        --fault-corruption -0.1)
rejects("FaultConfig: loss_rate ${rate}" ${train} --fault-loss -0.1)
rejects("FaultConfig: byzantine_fraction ${rate}" ${train}
        --byz-fraction -0.1)
rejects("ChurnConfig: join_rate ${rate}" ${train} --churn-join -0.1)
rejects("ChurnConfig: leave_rate ${rate}" ${train} --churn-leave -0.1)
rejects("ChurnConfig: return_rate ${rate}" ${train} --churn-return -0.1)
rejects("ChurnConfig: initial_fraction ${rate}" ${train}
        --churn-initial 1.5)

# Stale weights: [0, 1] synchronous, (0, 1] semi-async.
rejects("ResilienceConfig: stale_weight ${rate}" ${train}
        --fault-straggler 0.6 --stale-weight 3)
rejects("AsyncConfig: stale_weight must be in \\(0, 1\\]" ${train}
        --fault-straggler 0.6 --async --async-stale-weight -2)

# A Dirichlet split needs a concentration > 0.
rejects("Dirichlet concentration must be > 0" ${train} --beta 0)
rejects("Dirichlet concentration must be > 0" ${train} --beta -1)

# Byzantine attacks.
rejects("--byz-attack needs --byz-fraction > 0" ${train} --byz-attack scale)
rejects("--byz-scale needs --byz-attack scale or collude" ${train}
        --byz-fraction 0.25 --byz-scale 4)
rejects("--byz-noise needs --byz-attack noise" ${train} --byz-fraction 0.25
        --byz-attack scale --byz-noise 2)

# Aggregator options need their rule in --aggregator.
rejects("--trim-fraction needs trimmed" ${train} --trim-fraction 0.1)
rejects("--krum-f needs krum" ${train} --aggregator median --krum-f 1)
rejects("--multi-krum needs krum" ${train} --aggregator median
        --multi-krum 2)
rejects("--clip-norm needs clipped" ${train} --clip-norm 1)

# Retry: retries need lossy links, backoff shaping needs a backoff.
rejects("--max-retries needs --fault-loss > 0" ${train} --fault-dropout 0.2
        --max-retries 3)
rejects("--retry-jitter needs --retry-backoff > 0" ${train}
        --retry-jitter 0.2)
rejects("--retry-backoff-factor needs --retry-backoff > 0" ${train}
        --retry-backoff 0 --retry-backoff-factor 3)

# Semi-async commit.
rejects("--async ${fault_model}" ${train} --async)
rejects("--async-max-lag needs --async" ${train} --fault-straggler 0.5
        --async false --async-max-lag 2)

# Churn and admission.
rejects("--churn-seed needs churn" ${train} --churn-seed 5)
rejects("--churn-stale-weight needs churn" ${train} --churn-initial 1
        --churn-stale-weight 0.3)
rejects("--admit-policy needs an admission cap" ${train}
        --admit-policy defer)

# Store and telemetry.
rejects("--ckpt-keep needs --ckpt-dir" ${train} --ckpt-keep 2)
rejects("--no-store-resume needs --ckpt-dir" ${train} --no-store-resume)
rejects("--telemetry-every needs --metrics-out" ${train}
        --telemetry-every 2)

# Algorithm-specific flags.
rejects("--topk needs --algo fedavg\\+topk" ${train} --topk 0.2)
rejects("--budget needs --algo spatl" ${train} --budget 0.5)

# Path flags need a value: standing bare they would read as the path "true".
rejects("--metrics-out needs a value" ${train} --rounds 1 --metrics-out)
rejects("--out needs a value" ${train} --rounds 1 --out)
rejects("--ckpt-dir needs a value" ${train} --rounds 1 --ckpt-dir)
rejects("--trace-out needs a value" ${train} --rounds 1 --trace-out)
rejects("--ckpt needs a value" evaluate --ckpt)

# Malformed values, repeats and strays.
rejects("flag --rounds expects an integer, got '1.9'" ${train} --rounds 1.9)
rejects("flag --lr expects a number, got '0.05abc'" ${train} --lr 0.05abc)
rejects("flag --ckpt-verify expects true\\|false" ${train}
        --ckpt-dir "${ckpt_dir}" --ckpt-verify maybe)
rejects("flag --rounds given more than once" ${train} --rounds 1
        --rounds 2)
rejects("unexpected argument 'stray'" ${train} --rounds 1 stray)
rejects("flag --rounds expects a count >= 0, got -1" ${train} --rounds -1)
rejects("flag --clients expects a count >= 0, got -3" train --algo fedavg
        --arch cnn2 --input 8 --clients -3 --rounds 1)

file(REMOVE_RECURSE "${WORK_DIR}")
if(NOT failures STREQUAL "")
  message(FATAL_ERROR "commands the CLI did not reject:${failures}")
endif()
message(STATUS "every invalid command exits 1 with its error")
