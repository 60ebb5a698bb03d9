# Guards against orphan modules: every src/<module>/<name>.hpp must be
# included by some file outside tests/, not counting its own .cpp. A
# header that only its own tests include is substrate no experiment
# reads, and should be deleted with its tests.
# Includes from src/, tools/, bench/, examples/ and perfbench/ count.
# Usage: cmake -DROOT=<source-dir> -P module_reach.cmake

if(NOT DEFINED ROOT)
  message(FATAL_ERROR "module_reach.cmake needs -DROOT=...")
endif()

file(GLOB headers RELATIVE "${ROOT}/src" "${ROOT}/src/*/*.hpp")
set(sources "")
foreach(dir IN ITEMS src tools bench examples perfbench)
  file(GLOB_RECURSE found "${ROOT}/${dir}/*.hpp" "${ROOT}/${dir}/*.cpp")
  list(APPEND sources ${found})
endforeach()

# One string holding every include line, each prefixed by its file, so a
# header's own .cpp can be told apart from its other includers.
set(includes "")
foreach(path IN LISTS sources)
  file(STRINGS "${path}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(APPEND includes "${path}|${line}\n")
  endforeach()
endforeach()

set(orphans "")
foreach(header IN LISTS headers)
  string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${ROOT}/src/${header}")
  string(REPLACE "." "\\." pattern "${header}")
  string(REGEX MATCHALL "[^\n]*#[ \t]*include[ \t]*\"${pattern}\"[^\n]*"
         hits "${includes}")
  set(reached FALSE)
  foreach(hit IN LISTS hits)
    string(REGEX REPLACE "\\|.*$" "" includer "${hit}")
    if(NOT includer STREQUAL own_cpp)
      set(reached TRUE)
      break()
    endif()
  endforeach()
  if(NOT reached)
    list(APPEND orphans "src/${header}")
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR
    "src headers that no file outside tests/ includes, other than their "
    "own .cpp:\n"
    "  ${listing}")
endif()
list(LENGTH headers count)
message(STATUS "module reach: all ${count} src/*/*.hpp headers are used")
