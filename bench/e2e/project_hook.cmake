# Injected into the root project by bench/e2e/run.sh:
#
#   cmake -S . -B build/e2e -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/project_hook.cmake
#
# CMake includes this file right after the root project() call. It defers
# targets.cmake to the end of the root CMakeLists.txt, when every bbrnash_*
# library exists, so the benchmark links the real targets with the root's
# warnings, flags and LTO and no root build file needs an edit. (A deferred
# add_subdirectory is rejected by CMake, hence a deferred include. Deferred
# arguments are expanded when the call runs, hence the variable.)
set(BBRNASH_E2E_TARGETS ${CMAKE_CURRENT_LIST_DIR}/targets.cmake)
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL include ${BBRNASH_E2E_TARGETS})
