# Configures every build variant CI keeps working — tests off, benches
# off, ASan, TSan and warnings-as-errors — each into a throwaway build
# tree, and fails on the first one that does not configure.  The
# warnings variant is also built: a Release build (the optimizer finds
# the most warnings) of every target with -Wall -Wextra -Werror, so no
# new compiler warning lands unseen.  Registered as the
# `configure_variants` ctest:
#   cmake -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir>
#         -DCXX_COMPILER=<c++> -P tests/configure_variants.cmake
set(variants
  "tests-off|configure|-DWEBDEX_BUILD_TESTS=OFF"
  "benches-off|configure|-DWEBDEX_BUILD_BENCHMARKS=OFF"
  "asan|configure|-DWEBDEX_SANITIZE=address"
  "tsan|configure|-DWEBDEX_SANITIZE=thread"
  "werror|build|-DCMAKE_BUILD_TYPE=Release,-DCMAKE_CXX_FLAGS=-Werror")
cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
if(cores LESS 1)
  set(cores 1)
endif()
foreach(variant IN LISTS variants)
  string(REPLACE "|" ";" parts "${variant}")
  list(GET parts 0 name)
  list(GET parts 1 mode)
  list(GET parts 2 options)
  string(REPLACE "," ";" options "${options}")
  set(dir "${WORK_DIR}/${name}")
  file(REMOVE_RECURSE "${dir}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${dir}" ${options}
            "-DCMAKE_CXX_COMPILER=${CXX_COMPILER}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  if(result EQUAL 0 AND mode STREQUAL "build")
    execute_process(
      COMMAND "${CMAKE_COMMAND}" --build "${dir}" --parallel ${cores}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE output)
  endif()
  file(REMOVE_RECURSE "${dir}")
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${name} (${options}) failed:\n${output}")
  endif()
  message(STATUS "${name}: ok")
endforeach()
