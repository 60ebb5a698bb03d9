# Build file of the benchmark's tracer (traced_replay.cpp). perfbench/run.py
# passes it to the program's configure step as
# -DCMAKE_PROJECT_INCLUDE=<this file>, so the tracer links the very
# library targets, built with the same flags, that the `ethshard` CLI
# links, while the program's own build files stay unedited.
#
# The file is read right after the top-level project() call, before any
# target exists, so the target is added by a call deferred to the end of
# the top-level CMakeLists.txt.
function(perfbench_add_tracer dir)
  add_executable(perfbench_trace ${dir}/traced_replay.cpp)
  target_link_libraries(perfbench_trace PRIVATE ethshard_core)
endfunction()

cmake_language(EVAL CODE "
  cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
    CALL perfbench_add_tracer [[${CMAKE_CURRENT_LIST_DIR}]])")
