# Fails when a documentation file references a repository file that no longer
# exists — keeps docs/ARCHITECTURE.md's module map honest as the tree evolves.
#
#   cmake -DREPO_ROOT=<repo> -P cmake/check_doc_refs.cmake
#
# Every `src/...`, `tests/...`, `bench/...`, `examples/...`, `docs/...` or
# `cmake/...` token with a file extension found in the checked docs must name
# an existing file. Directory references (no extension) are not checked.
#
# The same holds for the code's pointers into the docs: every `*.md` token in
# a `//` comment of a source file under src/, tests/, bench/ or examples/
# must name an existing file, relative to the repository root
# (`docs/KERNELS.md`, `README.md`).

if(NOT DEFINED REPO_ROOT)
    get_filename_component(REPO_ROOT "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

set(checked_docs
    "${REPO_ROOT}/README.md"
    "${REPO_ROOT}/docs/ARCHITECTURE.md"
    "${REPO_ROOT}/docs/KERNELS.md"
    "${REPO_ROOT}/docs/CORRECTNESS.md"
    "${REPO_ROOT}/docs/TRANSPORT.md"
    "${REPO_ROOT}/docs/MESH.md"
    "${REPO_ROOT}/docs/OBSERVABILITY.md")

set(missing "")
foreach(doc IN LISTS checked_docs)
    if(NOT EXISTS "${doc}")
        message(FATAL_ERROR "doc-check: ${doc} does not exist")
    endif()
    file(READ "${doc}" content)
    string(REGEX MATCHALL
        "(src|tests|bench|examples|docs|cmake)/[A-Za-z0-9_/.-]*\\.(h|cpp|md|cmake|txt|yml)"
        refs "${content}")
    list(REMOVE_DUPLICATES refs)
    foreach(ref IN LISTS refs)
        if(NOT EXISTS "${REPO_ROOT}/${ref}")
            list(APPEND missing "  ${doc}: ${ref}")
        endif()
    endforeach()
endforeach()

file(GLOB_RECURSE sources RELATIVE "${REPO_ROOT}"
    "${REPO_ROOT}/src/*.h" "${REPO_ROOT}/src/*.cpp"
    "${REPO_ROOT}/tests/*.h" "${REPO_ROOT}/tests/*.cpp"
    "${REPO_ROOT}/bench/*.h" "${REPO_ROOT}/bench/*.cpp"
    "${REPO_ROOT}/examples/*.h" "${REPO_ROOT}/examples/*.cpp")
list(SORT sources)
foreach(src IN LISTS sources)
    file(READ "${REPO_ROOT}/${src}" content)
    string(REGEX MATCHALL "//[^\n]*" comments "${content}")
    string(REGEX MATCHALL "[A-Za-z0-9_/.-]+\\.md[A-Za-z0-9_]*"
        refs "${comments}")
    list(REMOVE_DUPLICATES refs)
    foreach(ref IN LISTS refs)
        if(ref MATCHES "\\.md$" AND NOT EXISTS "${REPO_ROOT}/${ref}")
            list(APPEND missing "  ${src}: ${ref}")
        endif()
    endforeach()
endforeach()

if(missing)
    list(JOIN missing "\n" lines)
    message(FATAL_ERROR "doc-check: stale file references:\n${lines}")
endif()
message(STATUS "doc-check: all referenced files exist")
