# Configures every build variant CI keeps working — tests off, benches
# off, ASan and TSan — each into a throwaway build tree, and fails on the
# first configure that exits nonzero.  It only configures; nothing is
# built.  Registered as the `configure_variants` ctest:
#   cmake -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir>
#         -DCXX_COMPILER=<c++> -P tests/configure_variants.cmake
set(variants
  "tests-off|-DWEBDEX_BUILD_TESTS=OFF"
  "benches-off|-DWEBDEX_BUILD_BENCHMARKS=OFF"
  "asan|-DWEBDEX_SANITIZE=address"
  "tsan|-DWEBDEX_SANITIZE=thread")
foreach(variant IN LISTS variants)
  string(REPLACE "|" ";" parts "${variant}")
  list(GET parts 0 name)
  list(GET parts 1 option)
  set(dir "${WORK_DIR}/${name}")
  file(REMOVE_RECURSE "${dir}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${dir}" ${option}
            "-DCMAKE_CXX_COMPILER=${CXX_COMPILER}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  file(REMOVE_RECURSE "${dir}")
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "configure ${name} (${option}) failed:\n${output}")
  endif()
  message(STATUS "configure ${name}: ok")
endforeach()
