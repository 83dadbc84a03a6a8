# Flag-level checks of the chaos engine, run by ctest as
#   cmake -DCHAOS=<phoenix_chaos> -DCHECK=<check> -P chaos_check.cmake
#
# contradiction: pins that cannot run together (async checkpointing with
#   every run sequential) must exit 2 and name the reason.
# determinism: the same seed and flags twice must write byte-identical
#   reports.
if(CHECK STREQUAL "contradiction")
  execute_process(
    COMMAND ${CHAOS} --runs=1 --async-checkpoint --overlap=1
            --out=chaos_contradiction.json
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--async-checkpoint --overlap=1 exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "overlap")
    message(FATAL_ERROR "no reason given:\n${err}")
  endif()
elseif(CHECK STREQUAL "determinism")
  foreach(run a b)
    execute_process(
      COMMAND ${CHAOS} --runs=16 --seed=7 --out=chaos_determinism_${run}.json
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "run ${run} exited ${rc}")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files chaos_determinism_a.json
            chaos_determinism_b.json
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "same-seed reports differ")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
