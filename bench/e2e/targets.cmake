# End-to-end benchmark targets; included at the end of the root
# CMakeLists.txt through project_hook.cmake, so paths below are explicit.
set(BBRNASH_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

add_library(bbrnash_e2e_common STATIC ${BBRNASH_E2E_DIR}/common.cpp)
target_include_directories(bbrnash_e2e_common PUBLIC ${BBRNASH_E2E_DIR})
target_link_libraries(bbrnash_e2e_common PUBLIC bbrnash_exp bbrnash_options)

# Untraced runs: the end-to-end metrics, --check-expected and --compare.
add_executable(bbrnash_e2e ${BBRNASH_E2E_DIR}/e2e_main.cpp
                           ${BBRNASH_E2E_DIR}/json.cpp)
target_link_libraries(bbrnash_e2e PRIVATE bbrnash_e2e_common)

# Traced runs: the per-layer metrics. A separate target, so a mirror that
# stops compiling never blocks the untraced measurement.
add_executable(bbrnash_e2e_trace ${BBRNASH_E2E_DIR}/trace_main.cpp)
target_link_libraries(bbrnash_e2e_trace PRIVATE bbrnash_e2e_common)

# Every correctness check on a few units per workload, no timing.
add_test(NAME e2e_smoke
         COMMAND bash ${BBRNASH_E2E_DIR}/run.sh --smoke
                 --build-dir ${CMAKE_BINARY_DIR})
set_tests_properties(e2e_smoke PROPERTIES LABELS "e2e" TIMEOUT 600)
