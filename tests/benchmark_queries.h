#ifndef WEBDEX_TESTS_BENCHMARK_QUERIES_H_
#define WEBDEX_TESTS_BENCHMARK_QUERIES_H_

// q1-q10 of the benchmark's query mix (perfbench/src/inputs.cc), the
// queries the EXPLAIN and key-twig goldens pin.

#include <string>
#include <vector>

namespace webdex {

inline const std::vector<std::string>& BenchmarkQueries() {
  static const std::vector<std::string>* queries = new std::vector<
      std::string>{
      "//regions//item[/@id='item42', //name:val]",
      "//closed_auction[/annotation:cont, /annotation/description~'amber']",
      "//item[/name:val, /mailbox/mail/from:val, /description~'lantern']",
      "//open_auctions/open_auction[/initial:val, /reserve, /privacy, "
      "/annotation/description~'obelisk']",
      "//person[/name:val, /address[/city='Paris'], /creditcard]",
      "//open_auction[/annotation/description~'gossamer', /seller]",
      "//item[/description/name:val]",
      "//open_auction[/seller/@person#s, /initial:val, "
      "/annotation/description~'marble']; "
      "//people/person[/@id#p, /name:val] where #s=#p",
      "//closed_auction[/itemref/@item#i, /price:val, "
      "/annotation/description~'laurel']; "
      "//regions//item[/@id#j, //name:val] where #i=#j",
      "//person[/watches/watch/@open_auction#w, /name:val, "
      "/address/country='France']; "
      "//open_auction[/@id#a, /current:val] where #w=#a",
  };
  return *queries;
}

}  // namespace webdex

#endif  // WEBDEX_TESTS_BENCHMARK_QUERIES_H_
