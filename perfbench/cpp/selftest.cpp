// Unit tests of the harness's own math: the trajectory digest and the exact
// quantile. Run with `ecost_perfbench --selftest` (run.py --selftest runs
// these and the Python statistics tests together).
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

void test_digest() {
  // FNV-1a 64 reference vectors.
  expect(Digest{}.value() == 0xcbf29ce484222325ULL, "empty digest basis");
  Digest a;
  a.add_byte('a');
  expect(a.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");
  Digest foobar;
  for (char c : std::string("foobar")) {
    foobar.add_byte(static_cast<unsigned char>(c));
  }
  expect(foobar.value() == 0x85944171f73967e8ULL, "FNV-1a of \"foobar\"");
  expect(hex64(foobar.value()) == "85944171f73967e8", "hex64 formatting");
  expect(hex64(1) == "0000000000000001", "hex64 zero padding");

  // Field order, field boundaries and bit patterns all change the digest.
  Digest ab, ba;
  ab.add_u64(1);
  ab.add_u64(2);
  ba.add_u64(2);
  ba.add_u64(1);
  expect(ab.value() != ba.value(), "digest is order sensitive");
  Digest s1, s2;
  s1.add_str("ab");
  s1.add_str("c");
  s2.add_str("a");
  s2.add_str("bc");
  expect(s1.value() != s2.value(), "string fields are length-delimited");
  Digest pz, nz;
  pz.add_f64(0.0);
  nz.add_f64(-0.0);
  expect(pz.value() != nz.value(), "doubles digest by bit pattern");
  Digest x1, x2;
  x1.add_f64(0.1 + 0.2);
  x2.add_f64(0.3);
  expect(x1.value() != x2.value(), "one-ulp difference changes the digest");
  Digest r1, r2;
  r1.add_f64(42.5);
  r1.add_i64(-3);
  r2.add_f64(42.5);
  r2.add_i64(-3);
  expect(r1.value() == r2.value(), "equal streams digest equal");
}

void test_quantile() {
  std::vector<double> empty;
  expect(exact_quantile(empty, 0.5) == 0.0, "empty sample gives 0");
  std::vector<double> one = {7.0};
  expect(exact_quantile(one, 0.0) == 7.0 && exact_quantile(one, 0.99) == 7.0,
         "single sample is every quantile");
  // 1..100 shuffled: index round(q * 99).
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>((i * 37) % 100 + 1));
  std::vector<double> c = v;
  expect(exact_quantile(c, 0.0) == 1.0, "q=0 is the minimum");
  c = v;
  expect(exact_quantile(c, 1.0) == 100.0, "q=1 is the maximum");
  c = v;
  expect(exact_quantile(c, 0.5) == 51.0, "median of 1..100 at index 50");
  c = v;
  expect(exact_quantile(c, 0.99) == 99.0, "p99 of 1..100 at index 98");
  std::vector<double> odd = {3.0, 1.0, 2.0};
  expect(exact_quantile(odd, 0.5) == 2.0, "median of three");
  std::vector<double> tail(1000, 0.0);
  for (int i = 0; i < 20; ++i) tail[static_cast<std::size_t>(i * 50)] = 5.0;
  expect(exact_quantile(tail, 0.99) == 5.0, "p99 sees a 2% tail");
  std::vector<double> thin(1000, 0.0);
  for (int i = 0; i < 5; ++i) thin[static_cast<std::size_t>(i * 100)] = 5.0;
  expect(exact_quantile(thin, 0.99) == 0.0, "p99 ignores a 0.5% tail");
}

}  // namespace

int run_selftest() {
  failures = 0;
  test_digest();
  test_quantile();
  std::cout << "ecost_perfbench selftest: "
            << (failures == 0 ? "ok" : std::to_string(failures) + " failed")
            << "\n";
  return failures;
}

}  // namespace perfbench
