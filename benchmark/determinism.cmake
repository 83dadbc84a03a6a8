# Runs one workload twice at a small size and fails unless both runs print
# byte-identical sim-time metrics: the metric lines phoenix_e2e marks "sim".
# ctest invokes it from the repository root, where phoenix_e2e reads
# BENCHMARK.json, as
#   cmake -DE2E=<phoenix_e2e> -DWORKLOAD=<name> -P determinism.cmake
foreach(run a b)
  execute_process(
    COMMAND ${E2E} --workload=${WORKLOAD} --seed=7 --scale=0.01
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${WORKLOAD} exited with ${rc}:\n${out}")
  endif()
  string(REGEX MATCHALL "${WORKLOAD} [^\n]* sim\n" sim_${run} "${out}")
endforeach()
if(sim_a STREQUAL "")
  message(FATAL_ERROR "no sim metrics in:\n${out}")
endif()
if(NOT sim_a STREQUAL sim_b)
  message(FATAL_ERROR "sim metrics differ:\n${sim_a}\n${sim_b}")
endif()
