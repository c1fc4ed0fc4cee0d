# Read by CTest after the gtest discovery files of tests/CMakeLists.txt:
# labels the serving suites' discovered tests `concurrency` and `fault`.
foreach(suite IN ITEMS session_store_test prediction_service_test)
  if(${suite}_TESTS)
    set_tests_properties(${${suite}_TESTS}
      PROPERTIES LABELS "concurrency;fault")
  endif()
endforeach()
