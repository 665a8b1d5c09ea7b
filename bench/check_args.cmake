# Runs BENCH with a bogus argument and with --help in an empty WORKDIR:
# the first must exit 2 and the second 0, and neither may write
# bench_results/. Usage:
#   cmake -DBENCH=path/to/bench -DWORKDIR=scratch/dir -P check_args.cmake
foreach(case "--bogus;2" "--help;0")
  list(GET case 0 arg)
  list(GET case 1 want)
  file(REMOVE_RECURSE "${WORKDIR}")
  file(MAKE_DIRECTORY "${WORKDIR}")
  execute_process(COMMAND "${BENCH}" ${arg}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT code STREQUAL want)
    message(FATAL_ERROR "${BENCH} ${arg}: exit '${code}', want ${want}\n${err}")
  endif()
  if(EXISTS "${WORKDIR}/bench_results")
    message(FATAL_ERROR "${BENCH} ${arg} wrote bench_results/")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
