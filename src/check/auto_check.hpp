#pragma once

/// \file auto_check.hpp
/// \brief Automatic post-run invariant checking (the CLOUDWF_CHECK switch).
///
/// install_auto_check() points sim::set_post_run_check at the invariant
/// checker: every Simulator::run validates its own result and throws
/// InternalError with the full violation report when a contract is broken.
/// auto_check_from_env() is what entry points (the CLI, tests, benches)
/// call once at startup: it honors the CLOUDWF_CHECK environment variable
/// ("1"/"true"/"on" enables, "0"/"false"/"off" disables) and falls back to
/// the build-time default (ON when configured with -DCLOUDWF_CHECK=ON).

namespace cloudwf::check {

/// Installs the checking hook unconditionally.
void install_auto_check();

/// Removes the hook (tests that need a pristine engine).
void uninstall_auto_check();

/// True when the hook is currently installed.
[[nodiscard]] bool auto_check_installed();

/// Env/build-default gate; returns whether checking ended up installed.
bool auto_check_from_env();

}  // namespace cloudwf::check
