# Restart-equivalence smoke at the CLI level (the library-level contract is
# tests/test_restart.cpp): a straight 20-step hybrid run with the moving
# window must produce a checkpoint identical to 10 steps + `--restart` + 10
# steps, verified with `tpf-chk diff`. Driven by ctest and by CI:
#
#   cmake -DTPF_SIM=<path> -DTPF_CHK=<path> -DOUT=<scratch-dir> \
#         -P cmake/restart_smoke.cmake

foreach(var TPF_SIM TPF_CHK OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "restart_smoke.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

set(common --scenario solidify --size 16,16,32 --ranks 2 --threads 2
    --window --checkpoint-every 10)

function(run_step)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        string(JOIN " " cmdline ${ARGN})
        message(FATAL_ERROR "restart smoke failed (rc=${rc}): ${cmdline}")
    endif()
endfunction()

# Straight reference: 20 steps, checkpoints at steps 10 and 20.
run_step(${TPF_SIM} ${common} --steps 20 --out ${OUT}/straight)

# Split run: 10 steps, then restart from its checkpoint for 10 more. The
# second leg names its checkpoint by the *global* step, so both runs end in
# a checkpoint_step000020.
run_step(${TPF_SIM} ${common} --steps 10 --out ${OUT}/split)
run_step(${TPF_SIM} ${common} --steps 10 --out ${OUT}/split
         --restart ${OUT}/split/checkpoint_step000010)

# `info` reads headers only and must say that it did not verify the
# payload CRCs.
execute_process(COMMAND ${TPF_CHK} info ${OUT}/split/checkpoint_step000020
                RESULT_VARIABLE rc OUTPUT_VARIABLE info_out)
if(NOT rc EQUAL 0 OR NOT info_out MATCHES "payload CRCs +not verified")
    message(FATAL_ERROR "restart smoke: tpf-chk info (rc=${rc}) does not "
                        "report unverified payload CRCs:\n${info_out}")
endif()

# Bitwise equivalence, or fail with the first divergent field and cell.
run_step(${TPF_CHK} diff ${OUT}/straight/checkpoint_step000020
         ${OUT}/split/checkpoint_step000020)

# Unaligned cadence: the checkpoint schedule is keyed off the *global* step,
# so a run restarted at step 10 with --checkpoint-every 7 must write at
# global step 14 — exactly where the straight run writes — not at 10+7=17.
set(common7 --scenario solidify --size 16,16,32 --ranks 2 --threads 2
    --window)
run_step(${TPF_SIM} ${common7} --steps 20 --checkpoint-every 7
         --out ${OUT}/straight7)
run_step(${TPF_SIM} ${common7} --steps 10 --checkpoint-every 5
         --out ${OUT}/split7)
run_step(${TPF_SIM} ${common7} --steps 10 --checkpoint-every 7
         --out ${OUT}/split7 --restart ${OUT}/split7/checkpoint_step000010)
run_step(${TPF_CHK} diff ${OUT}/straight7/checkpoint_step000014
         ${OUT}/split7/checkpoint_step000014)
