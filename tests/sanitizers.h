// Compile-time detection of an AddressSanitizer build, shared by the tests
// whose expectations ASan changes (RITCS_ASAN is 1 under ASan, else 0).
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#define RITCS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RITCS_ASAN 1
#endif
#endif
#ifndef RITCS_ASAN
#define RITCS_ASAN 0
#endif
